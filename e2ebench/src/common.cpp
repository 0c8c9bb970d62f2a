#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "metrics.hpp"
#include "mmhand/hand/kinematics.hpp"
#include "mmhand/obs/metrics.hpp"

namespace e2ebench {

System::System()
    : array(chirp), pipeline(chirp, array, radar::PipelineConfig{}) {
  MMHAND_CHECK(net.frames_per_sample() == kWindowFrames &&
                   chirp.frame_period_s * 1000.0 == kFramePeriodMs,
               "window geometry differs from the benchmark's constants");
  mmhand::Rng rng(kWeightSeed);
  model = std::make_unique<pose::HandJointRegressor>(net, rng);
  recon = std::make_unique<mesh::MeshReconstructor>(
      mesh::HandTemplate::create(hand::HandProfile::reference()), rng);
}

namespace {

UserFrames synthesize_user(const radar::ChirpConfig& chirp,
                           std::uint64_t seed, int index, int frames) {
  mmhand::Rng root(seed * 0x9e3779b97f4a7c15ull +
                   static_cast<std::uint64_t>(index) * 0x2545f4914f6cdd1dull);
  UserFrames out;
  out.user_id = root.uniform_int(0, 9);
  // The paper's volunteers sit 20-40 cm from the radar, roughly
  // boresight; each user gets a placement and gesture script of its own.
  const double range = root.uniform(0.22, 0.38);
  const double azimuth = root.uniform(-0.2, 0.2);
  hand::GestureScriptConfig script_config;
  script_config.base_wrist =
      mmhand::Vec3{range * std::sin(azimuth), range * std::cos(azimuth), 0.0};
  const double dt = chirp.frame_period_s;
  const hand::GestureScript script(script_config, root.fork(),
                                   (frames + 1) * dt);
  mmhand::Rng scene_rng = root.fork();
  mmhand::Rng noise_rng = root.fork();
  const auto profile = hand::HandProfile::for_user(out.user_id);
  const radar::AntennaArray array(chirp);
  const radar::IfSimulator simulator(chirp, array);
  out.frames.reserve(static_cast<std::size_t>(frames));
  out.joints.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const double t = f * dt;
    const auto joints =
        hand::forward_kinematics(profile, script.pose_at(t));
    const auto prev_joints = hand::forward_kinematics(
        profile, script.pose_at(std::max(0.0, t - dt)));
    const radar::Scene scene =
        sim::build_hand_scene(joints, prev_joints, dt, {}, scene_rng);
    out.frames.push_back(simulator.simulate_frame(scene, 0.0, noise_rng));
    out.joints.push_back(joints);
  }
  return out;
}

}  // namespace

std::vector<UserFrames> synthesize_users(const radar::ChirpConfig& chirp,
                                         std::uint64_t seed, int count,
                                         int frames) {
  std::vector<UserFrames> users(static_cast<std::size_t>(count));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  std::vector<std::thread> threads;
  for (int u = 0; u < count; ++u)
    threads.emplace_back([&, u] {
      try {
        users[static_cast<std::size_t>(u)] =
            synthesize_user(chirp, seed, u, frames);
      } catch (...) {
        errors[static_cast<std::size_t>(u)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return users;
}

nn::Tensor window_input(const System& sys,
                        const std::vector<radar::IfFrame>& frames, int first,
                        int count) {
  const pose::PoseNetConfig& c = sys.net;
  nn::Tensor x({count, c.velocity_bins, c.range_bins, c.angle_bins});
  const std::size_t frame_elems = static_cast<std::size_t>(
      c.velocity_bins * c.range_bins * c.angle_bins);
  radar::RadarCube cube;
  for (int i = 0; i < count; ++i) {
    sys.pipeline.process_frame_into(
        frames[static_cast<std::size_t>(first + i)], &cube);
    pose::write_cube_frame(cube, c,
                           x.data() + static_cast<std::size_t>(i) * frame_elems);
  }
  return x;
}

bool mesh_finite(const mesh::HandMesh& m) {
  return !m.vertices.empty() &&
         std::all_of(m.vertices.begin(), m.vertices.end(), [](const auto& v) {
           return std::isfinite(v.x) && std::isfinite(v.y) &&
                  std::isfinite(v.z);
         });
}

bool joints_finite(const hand::JointSet& joints) {
  return std::all_of(joints.begin(), joints.end(), [](const auto& v) {
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  });
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

void print_row(const std::string& name, double value, const char* unit) {
  std::printf("  %-44s %16.6f %s\n", name.c_str(), value, unit);
}

}  // namespace

void Report::e2e(const std::string& name, double value, const char* unit) {
  print_row(name, value, unit);
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value, const char* unit) {
  print_row(name, value, unit);
  layer_.push_back({name, value, unit});
}

void Report::note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

void Report::remainder(const std::string& name, double total,
                       const std::vector<double>& parts, const char* unit) {
  double sum = 0.0;
  for (const double p : parts) sum += p;
  layer(name, total - sum, unit);
}

void Report::print_result(bool trace, bool correct, long long attempted,
                          long long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  auto emit = [&](const std::string& name, double value, const char* unit,
                  bool first) {
    char buf[256];
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "e2ebench: metric %s is not finite\n",
                   name.c_str());
      value = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, unit);
    out += buf;
  };
  // The result line carries exactly the metric set the benchmark
  // declares; a declared per-layer metric the workload does not exercise
  // (serve.* on the offline workload) reads 0 and gets a row of its own.
  const std::vector<Metric>& pool = trace ? layer_ : e2e_;
  bool first = true;
  bool noted = false;
  for (const MetricSpec& spec : declared_metrics(trace)) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : pool)
      if (m.name == spec.name) {
        value = m.value;
        found = true;
      }
    if (!found) {
      if (!noted) std::printf("# not exercised by this workload\n");
      noted = true;
      print_row(spec.name, 0.0, spec.unit);
    }
    emit(spec.name, value, spec.unit, first);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double span_mean_ms(const char* name) {
  return mmhand::obs::histogram(name).stats().mean / 1000.0;
}

double span_total_ms(const char* name) {
  return mmhand::obs::histogram(name).stats().sum / 1000.0;
}

void report_radar_stages(Report& report) {
  static const char* const kStages[][2] = {
      {"radar/bandpass", "radar.bandpass_us"},
      {"radar/range_fft", "radar.range_fft_us"},
      {"radar/doppler_fft", "radar.doppler_fft_us"},
      {"radar/cube_assembly", "radar.cube_assembly_us"},
      {"radar/zoom_angle_fft", "radar.zoom_angle_fft_us"},
  };
  const double frames = static_cast<double>(
      mmhand::obs::histogram("bench/process_frame_into").stats().count);
  const double frame_us = 1000.0 * span_mean_ms("bench/process_frame_into");
  report.layer("radar.process_frame_into_us", frame_us, "us");
  std::vector<double> parts;
  double flops = 0.0;
  double busy_ms = 0.0;
  for (const auto& stage : kStages) {
    const double ms = span_total_ms(stage[0]);
    parts.push_back(frames > 0.0 ? 1000.0 * ms / frames : 0.0);
    report.layer(stage[1], parts.back(), "us");
    const double f = static_cast<double>(
        mmhand::obs::counter(std::string(stage[0]) + ".flops").value());
    if (f > 0.0) {
      flops += f;
      busy_ms += ms;
    }
  }
  report.remainder("radar.unattributed_us", frame_us, parts, "us");
  report.layer("radar.gflops", busy_ms > 0.0 ? flops / (busy_ms * 1e6) : 0.0,
               "GFLOP/s");
}

void report_gemm_rate(Report& report) {
  const double flops =
      static_cast<double>(mmhand::obs::counter("nn/gemm.flops").value());
  const double ms = span_total_ms("nn/gemm");
  report.layer("nn.gemm_gflops", ms > 0.0 ? flops / (ms * 1e6) : 0.0,
               "GFLOP/s");
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench
