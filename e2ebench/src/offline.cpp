// Offline replay: one closed-loop caller turning seeded multi-user
// recordings of raw IF frames into poses and meshes, the way the
// offline ingest path does (DSP per frame, predict_recording with its
// health scan, mesh per predicted segment).

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "mmhand/pose/inference.hpp"

namespace e2ebench {
namespace {

/// Users replayed round-robin, and windows per recording.  Six windows
/// (48 frames, about 0.1 s of work) give a p90 with well over ten
/// recordings beyond it in a ten-second phase.
constexpr int kUsers = 4;
constexpr int kRecordingWindows = 6;
constexpr int kRecordingFrames = kRecordingWindows * kWindowFrames;

/// A recording shell around a user's frames: labels from the noise-free
/// joints, cubes filled by the DSP inside the timed loop.
sim::Recording recording_for(const UserFrames& user, int frames) {
  sim::Recording rec;
  rec.user_id = user.user_id;
  rec.frames.resize(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    auto& fr = rec.frames[static_cast<std::size_t>(f)];
    fr.joints = user.joints[static_cast<std::size_t>(f)];
    fr.true_joints = fr.joints;
    fr.time_s = f * kFramePeriodMs / 1000.0;
  }
  return rec;
}

struct RecordingTimes {
  double total_ms = 0.0;
  double dsp_ms = 0.0;
  double predict_ms = 0.0;
  double mesh_ms = 0.0;
};

struct ReplayResult {
  std::vector<pose::FramePrediction> predictions;
  bool finite = true;
  RecordingTimes times;
};

/// The unit of offline work: IF frames -> cubes -> poses -> meshes.
ReplayResult replay(System& sys, const UserFrames& user,
                    sim::Recording& rec) {
  ReplayResult out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t f = 0; f < rec.frames.size(); ++f) {
    MMHAND_SPAN("bench/process_frame_into");
    sys.pipeline.process_frame_into(user.frames[f], &rec.frames[f].cube);
  }
  const Clock::time_point t1 = Clock::now();
  {
    MMHAND_SPAN("bench/predict_recording");
    out.predictions = pose::predict_recording(*sys.model, rec);
  }
  const Clock::time_point t2 = Clock::now();
  out.finite = out.predictions.size() ==
               rec.frames.size() / static_cast<std::size_t>(
                                       sys.net.segment_frames);
  for (const pose::FramePrediction& p : out.predictions) {
    mesh::ReconstructionResult m;
    {
      MMHAND_SPAN("bench/reconstruct");
      m = sys.recon->reconstruct(p.joints);
    }
    out.finite = out.finite && joints_finite(p.joints) && mesh_finite(m.mesh);
  }
  const Clock::time_point t3 = Clock::now();
  out.times = {ms_between(t0, t3), ms_between(t0, t1), ms_between(t1, t2),
               ms_between(t2, t3)};
  return out;
}

struct PhaseSummary {
  std::vector<RecordingTimes> recordings;
  long long frames = 0;
  long long windows = 0;
  long long failed = 0;  ///< windows of recordings with non-finite output
  double wall_s = 0.0;
};

/// Replays recordings back to back until `seconds` have passed.
PhaseSummary run_phase(System& sys, const std::vector<UserFrames>& users,
                       std::vector<sim::Recording>& recs, double seconds) {
  PhaseSummary s;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::size_t u = i % users.size();
    const ReplayResult r = replay(sys, users[u], recs[u]);
    s.recordings.push_back(r.times);
    s.frames += static_cast<long long>(recs[u].frames.size());
    s.windows += kRecordingWindows;
    if (!r.finite) s.failed += kRecordingWindows;
  }
  s.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return s;
}

double p50_total(const PhaseSummary& s) {
  std::vector<double> v;
  for (const auto& r : s.recordings) v.push_back(r.total_ms);
  return percentile(v, 50);
}

/// Per-layer rows of a traced phase, mean per recording.
void report_traced(const PhaseSummary& s, Report& report,
                   double* forward_per_window_ms) {
  report_radar_stages(report);
  std::vector<double> dsp, predict, mesh_ms;
  for (const auto& r : s.recordings) {
    dsp.push_back(r.dsp_ms);
    predict.push_back(r.predict_ms);
    mesh_ms.push_back(r.mesh_ms);
  }
  const double spacenet = span_mean_ms("pose/spacenet_forward");
  const double lstm = span_mean_ms("nn/lstm_forward");
  // Wall time per recording, so loop overhead between the timed calls
  // lands in offline.unattributed_ms.
  const double per_recording =
      s.recordings.empty() ? 0.0 : 1000.0 * s.wall_s / s.recordings.size();
  report.layer("offline.recording_ms", per_recording, "ms");
  report.layer("offline.dsp_ms", mean(dsp), "ms");
  report.layer("offline.predict_ms", mean(predict), "ms");
  report.layer("pose.spacenet_ms", spacenet, "ms");
  report.layer("pose.lstm_ms", lstm, "ms");
  report.remainder("offline.predict_unattributed_ms", mean(predict),
                   {kRecordingWindows * spacenet, kRecordingWindows * lstm},
                   "ms");
  report.layer("offline.mesh_ms", mean(mesh_ms), "ms");
  report.remainder("offline.unattributed_ms", per_recording,
                   {mean(dsp), mean(predict), mean(mesh_ms)}, "ms");
  report.layer("mesh.reconstruct_us",
               1000.0 * span_mean_ms("bench/reconstruct"), "us");
  report_gemm_rate(report);
  *forward_per_window_ms = mean(predict) / kRecordingWindows;
}

/// predict_recording on a healthy recording must equal, bit for bit,
/// HandJointRegressor::forward on its first window's cubes.
bool check_parity(System& sys, const UserFrames& user, sim::Recording& rec,
                  Report& report) {
  const ReplayResult r = replay(sys, user, rec);
  const nn::Tensor want = sys.model->forward(
      window_input(sys, user.frames, 0, kWindowFrames), false);
  bool same = r.finite && !r.predictions.empty();
  for (int s = 0; same && s < sys.net.sequence_segments; ++s) {
    const hand::JointSet j = pose::row_to_joints(want, s);
    same = std::memcmp(&j, &r.predictions[static_cast<std::size_t>(s)].joints,
                       sizeof(j)) == 0;
  }
  report.note(std::string("  parity: predict_recording vs forward() on "
                          "the first window: ") +
              (same ? "identical" : "MISMATCH"));
  return same;
}

}  // namespace

bool run_offline(const Args& args, Report& report, long long* attempted,
                 long long* failed) {
  const std::vector<UserFrames> users = synthesize_users(
      radar::ChirpConfig{}, args.seed, kUsers, kRecordingFrames);
  std::vector<sim::Recording> recs;
  for (const UserFrames& u : users)
    recs.push_back(recording_for(u, kRecordingFrames));

  // Set-up: pipeline, model, reconstructor, and one warm window.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    const Clock::time_point t0 = Clock::now();
    sys = std::make_unique<System>();
    sim::Recording warm = recording_for(users.front(), kWindowFrames);
    if (!replay(*sys, users.front(), warm).finite)
      throw std::runtime_error("warm window produced non-finite output");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  report.note("# phase untraced");
  const PhaseSummary untraced = run_phase(*sys, users, recs, measure_s);
  std::vector<double> rec_ms;
  for (const auto& r : untraced.recordings) rec_ms.push_back(r.total_ms);
  report.note("  recordings " + std::to_string(untraced.recordings.size()) +
              " of " + std::to_string(kRecordingFrames) + " frames");
  report.e2e("latency_p50_ms", percentile(rec_ms, 50), "ms");
  report.e2e("latency_p90_ms", percentile(rec_ms, 90), "ms");
  report.e2e("window_ok_ratio",
             untraced.windows > 0
                 ? static_cast<double>(untraced.windows - untraced.failed) /
                       static_cast<double>(untraced.windows)
                 : 0.0,
             "ratio");
  report.e2e("frames_per_s",
             untraced.wall_s > 0.0
                 ? static_cast<double>(untraced.frames) / untraced.wall_s
                 : 0.0,
             "1/s");
  report.e2e("setup_s", percentile(setup_s, 50), "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  *attempted = untraced.windows;
  *failed = untraced.failed;

  double forward_per_window_ms = 0.0;
  if (args.trace) {
    mmhand::obs::reset_metrics();
    mmhand::obs::set_metrics_enabled(true);
    report.note("# phase traced");
    const PhaseSummary traced = run_phase(*sys, users, recs, measure_s);
    report_traced(traced, report, &forward_per_window_ms);
    report.layer("trace.untraced_p50_ms", p50_total(untraced), "ms");
    report.layer("trace.traced_p50_ms", p50_total(traced), "ms");
    report.layer("trace.overhead_pct",
                 p50_total(untraced) > 0.0
                     ? 100.0 * (p50_total(traced) - p50_total(untraced)) /
                           p50_total(untraced)
                     : 0.0,
                 "%");
    *attempted += traced.windows;
    *failed += traced.failed;
  }

  report.note("# correctness");
  report.note("  non-finite windows: " + std::to_string(*failed));
  const bool correct =
      check_parity(*sys, users.front(), recs.front(), report) && *failed == 0;
  if (args.trace) {
    const double probe_forward_ms =
        run_layer_probe(*sys, users.front(), report);
    report.layer("pose.traced_vs_probe_ms",
                 forward_per_window_ms - probe_forward_ms, "ms");
  }
  return correct;
}

}  // namespace e2ebench
