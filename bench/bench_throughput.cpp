// Throughput bench for the parallel execution layer: times the radar
// pipeline and the GEMM-backed NN layers at 1/2/N threads and writes
// machine-readable results to BENCH_throughput.json (or argv[1]).
//
// Run from the repo root so the JSON lands next to CHANGES.md:
//   ./build/bench/bench_throughput
//
// Thread scaling only shows up when the host actually has cores to scale
// onto; the JSON records `hardware_concurrency` so downstream tooling can
// interpret a flat curve on a single-core CI box.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "mmhand/common/parallel.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/simd/simd.hpp"

namespace {

using mmhand::Rng;
using mmhand::Vec3;

/// Wall time of a single call, in milliseconds.
double timed_call_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct OpResult {
  std::string op;
  int threads = 1;
  double ms = 0.0;
};

/// First line of `path`, stripped of the trailing newline ("" on error).
std::string read_line(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  char buf[256] = {0};
  const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
  std::fclose(f);
  if (!ok) return {};
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// Keep provenance strings safe to splice into the JSON literal.
std::string json_safe(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      c = ' ';
  return s;
}

/// HEAD commit of the checkout the bench ran from ("" outside a repo).
/// Follows one level of symref ("ref: refs/heads/x") without shelling
/// out to git, so the bench stays dependency-free.
std::string git_head_sha() {
  const std::string head = read_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0)
    return read_line(".git/" + head.substr(5));
  return head;
}

std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return {};
  return buf;
}

/// "model name" line from /proc/cpuinfo ("" on non-Linux hosts).
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "rb");
  if (f == nullptr) return {};
  char buf[512];
  std::string model;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    model = line.substr(begin);
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_throughput.json";

  // Paper-shaped radar frame: 3 TX x 4 RX x 16 chirps x 64 samples.
  mmhand::radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const mmhand::radar::AntennaArray array(chirp);
  const mmhand::radar::IfSimulator sim(chirp, array);
  const mmhand::radar::PipelineConfig pc;
  const mmhand::radar::RadarPipeline pipe(chirp, array, pc);
  mmhand::radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng frame_rng(1);
  const auto frame = sim.simulate_frame(scene, 0.0, frame_rng);

  Rng rng(2);
  mmhand::nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const mmhand::nn::Tensor conv_x =
      mmhand::nn::Tensor::randn({1, 8, 32, 32}, rng, 1.0);
  // mmSpaceNet's block2.up2 upsampling layer.
  mmhand::nn::ConvTranspose2d deconv(20, 20, 4, 2, 1, rng);
  const mmhand::nn::Tensor deconv_x =
      mmhand::nn::Tensor::randn({8, 20, 6, 6}, rng, 1.0);
  mmhand::nn::Linear fc(256, 256, rng);
  const mmhand::nn::Tensor fc_x =
      mmhand::nn::Tensor::randn({64, 256}, rng, 1.0);
  mmhand::nn::Lstm lstm(128, 128, rng);
  const mmhand::nn::Tensor lstm_x =
      mmhand::nn::Tensor::randn({1, 128}, rng, 1.0);

  struct Op {
    const char* name;
    std::function<void()> fn;
    int reps;
  };
  const std::vector<Op> ops = {
      {"process_frame", [&] { pipe.process_frame(frame); }, 9},
      {"conv2d_forward", [&] { conv.forward(conv_x, false); }, 15},
      {"deconv_forward", [&] { deconv.forward(deconv_x, false); }, 15},
      {"linear_forward", [&] { fc.forward(fc_x, false); }, 25},
      {"lstm_step", [&] { lstm.forward(lstm_x, false); }, 25},
  };

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  // Reps are interleaved round-robin across thread counts and the
  // minimum is kept: a sequential per-thread-count loop on a throttling
  // (often single-core) CI box flatters whichever configuration runs
  // first, which used to masquerade as a threading regression.
  // Round-robin spreads the thermal drift evenly and min-of-reps
  // discards the throttled samples.
  std::vector<OpResult> results;
  for (const auto& op : ops) {
    std::vector<double> best(thread_counts.size(), 1e300);
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      mmhand::set_num_threads(thread_counts[ti]);
      op.fn();  // warm caches, twiddle tables, the pool at this width
    }
    for (int rep = 0; rep < op.reps; ++rep)
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        mmhand::set_num_threads(thread_counts[ti]);
        best[ti] = std::min(best[ti], timed_call_ms(op.fn));
      }
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      OpResult r;
      r.op = op.name;
      r.threads = thread_counts[ti];
      r.ms = best[ti];
      results.push_back(r);
      std::printf("%-16s %d thread%s  %8.3f ms\n", op.name, r.threads,
                  r.threads == 1 ? " " : "s", r.ms);
    }
  }
  // Capture pass for the per-stage breakdown: re-run each op at a fixed
  // thread count with metrics on so the span histograms (radar/* stage
  // timings, nn/gemm call+FLOP counters, nn/lstm_step) have samples, then
  // embed the snapshot verbatim below.
  const int capture_threads = std::min(4, std::max(1, hw));
  mmhand::set_num_threads(capture_threads);
  mmhand::obs::set_metrics_enabled(true);
  mmhand::obs::reset_metrics();
  for (const auto& op : ops)
    for (int r = 0; r < op.reps; ++r) op.fn();
  std::string breakdown = mmhand::obs::metrics_json();
  mmhand::obs::set_metrics_enabled(false);
  while (!breakdown.empty() && breakdown.back() == '\n') breakdown.pop_back();
  mmhand::set_num_threads(1);

  // Telemetry overhead probe: radar/process_frame with the continuous
  // sampler live (50 ms interval, in-memory ring only) against fully-off.
  // This box's clock speed drifts by several percent across seconds —
  // far more than the effect being measured — so each round pairs an off
  // and an on timing taken back to back (same thermal state) and the
  // estimate is the median of the per-round on/off ratios, which drift
  // cancels out of.  Reported off/on times are each side's min.  The
  // acceptance bar is < 3%.
  const int overhead_rounds = 16;
  double off_ms = 1e300, on_ms = 1e300;
  std::vector<double> round_ratios;
  mmhand::obs::TelemetryConfig tcfg;
  tcfg.interval_ms = 50;
  // min-of-3 inside each half of a round: a single call can eat a
  // scheduler hiccup or a sampler tick; its round partner then records
  // a bogus ratio.  Three tries per side push that below the median.
  const auto best_of3 = [&] {
    double best = 1e300;
    for (int k = 0; k < 3; ++k)
      best = std::min(best,
                      timed_call_ms([&] { pipe.process_frame(frame); }));
    return best;
  };
  for (int r = 0; r < overhead_rounds; ++r) {
    mmhand::obs::stop_telemetry();
    mmhand::obs::set_metrics_enabled(false);
    pipe.process_frame(frame);  // warm after the mode switch
    const double off = best_of3();
    mmhand::obs::set_telemetry(tcfg);
    pipe.process_frame(frame);
    const double on = best_of3();
    off_ms = std::min(off_ms, off);
    on_ms = std::min(on_ms, on);
    if (off > 0.0) round_ratios.push_back(on / off);
  }
  mmhand::obs::stop_telemetry();
  mmhand::obs::set_metrics_enabled(false);
  std::sort(round_ratios.begin(), round_ratios.end());
  const double overhead_ratio =
      round_ratios.empty() ? 0.0 : round_ratios[round_ratios.size() / 2];
  std::printf("telemetry overhead: off %.3f ms, on %.3f ms (x%.3f median "
              "of %zu paired rounds)\n",
              off_ms, on_ms, overhead_ratio, round_ratios.size());

  auto ms_for = [&](const std::string& op, int threads) {
    for (const auto& r : results)
      if (r.op == op && r.threads == threads) return r.ms;
    return 0.0;
  };

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n", hw);
  // Provenance: which commit on which machine produced these numbers.
  // bench/history.jsonl carries the same fields (check_bench.py copies
  // them), so a cross-machine comparison is visible instead of silent.
  std::fprintf(
      f,
      "  \"provenance\": {\"git_sha\": \"%s\", \"hostname\": \"%s\", "
      "\"cpu_model\": \"%s\"},\n",
      json_safe(git_head_sha()).c_str(), json_safe(host_name()).c_str(),
      json_safe(cpu_model()).c_str());
  // The dispatched vector ISA; check_bench.py refuses to compare runs
  // whose ISAs differ (a scalar run would "regress" the AVX2 baseline
  // by design).
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               mmhand::simd::isa_name(mmhand::simd::active_isa()));
  std::fprintf(f, "  \"thread_counts\": [");
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    std::fprintf(f, "%s%d", i ? ", " : "", thread_counts[i]);
  std::fprintf(f, "],\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i)
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"threads\": %d, \"ms\": %.4f}%s\n",
                 results[i].op.c_str(), results[i].threads, results[i].ms,
                 i + 1 < results.size() ? "," : "");
  std::fprintf(f, "  ],\n  \"speedup_4t\": {\n");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double t1 = ms_for(ops[i].name, 1);
    const double t4 = ms_for(ops[i].name, 4);
    std::fprintf(f, "    \"%s\": %.3f%s\n", ops[i].name,
                 t4 > 0.0 ? t1 / t4 : 0.0, i + 1 < ops.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n  \"telemetry_overhead\": {\"op\": "
               "\"process_frame\", \"off_ms\": %.4f, \"on_ms\": %.4f, "
               "\"ratio\": %.4f},\n",
               off_ms, on_ms, overhead_ratio);
  std::fprintf(f, "  \"stage_breakdown_threads\": %d,\n",
               capture_threads);
  std::fprintf(f, "  \"stage_breakdown\": %s\n}\n", breakdown.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
