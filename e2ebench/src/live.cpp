// Live workloads: open-loop sessions streaming raw IF frames at the
// radar's 50 fps into serve::Server, with DSP of every frame on the one
// generator thread and poses plus meshes collected through poll().

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "mmhand/serve/server.hpp"

namespace e2ebench {
namespace serve = mmhand::serve;
namespace {

/// IF frames synthesized per session and replayed cyclically: twelve
/// windows of distinct hand content keep synthesis out of the timed
/// path without replaying one window over and over.
constexpr int kPoolWindows = 12;
constexpr int kPoolFrames = kPoolWindows * kWindowFrames;

/// Longest sleep between polls while the generator waits for the next
/// frame; it bounds how late a finished window is noticed.
constexpr auto kPollSleep = std::chrono::microseconds(200);

const auto kFramePeriod =
    std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kFramePeriodMs));

/// One offered window, indexed by the server's per-session sequence.
struct WindowRec {
  int phase = 0;
  int first_frame = 0;  ///< session frame index of the window's first frame
  Clock::time_point due;  ///< when the window's last IF frame was due
  double late_ms = 0.0;   ///< due -> DSP start of the last frame
  double dsp_ms = 0.0;    ///< process_frame_into of the last frame
  double submit_ms = 0.0; ///< submit() of the last frame
  double ingest_ms = 0.0; ///< due -> last frame submitted
  bool resolved = false;
  serve::Disposition disposition = serve::Disposition::kShed;
  bool mesh_done = false;
  bool mesh_ok = false;
  double server_ms = 0.0;   ///< WindowResult::e2e_ms
  double latency_ms = 0.0;  ///< due -> result received through poll()
  std::vector<float> pose;  ///< [S, 63] joints, copied out of the result
};

struct Session {
  serve::SessionId id = 0;
  const UserFrames* user = nullptr;
  Clock::duration phase_offset{};
  Clock::time_point due;
  long long offered = 0;   ///< frames handed to submit()
  int accepted = 0;        ///< frames the server accepted
  std::vector<int> pool_index;  ///< pool frame of each accepted frame
  radar::RadarCube cube;
  std::vector<WindowRec> windows;  ///< index == server window seq
};

/// Everything a live run builds before it measures.
struct Setup {
  std::unique_ptr<System> sys;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::SessionId> ids;
};

serve::ServeConfig live_config(int sessions) {
  serve::ServeConfig c;
  c.deadline_ms = kLimitMs;
  c.max_sessions = sessions + 1;  // the measured sessions + the warm-up one
  c.policy = serve::ShedPolicy::kDropOldest;
  return c;
}

/// Builds pipeline, model, reconstructor and server, joins the
/// sessions, and pushes one warm window through a throwaway session.
Setup build(int sessions, const UserFrames& warm_user) {
  Setup s;
  s.sys = std::make_unique<System>();
  serve::ServerOptions options;
  options.mesh = s.sys->recon.get();
  s.server = std::make_unique<serve::Server>(live_config(sessions),
                                             *s.sys->model, options);
  for (int i = 0; i < sessions; ++i) {
    const serve::JoinResult j = s.server->join();
    if (!j.admitted) throw std::runtime_error("session not admitted");
    s.ids.push_back(j.id);
  }
  const serve::JoinResult warm = s.server->join();
  if (!warm.admitted) throw std::runtime_error("warm session not admitted");
  radar::RadarCube cube;
  for (int f = 0; f < kWindowFrames; ++f) {
    s.sys->pipeline.process_frame_into(
        warm_user.frames[static_cast<std::size_t>(f)], &cube);
    s.server->submit(warm.id, cube);
  }
  std::vector<serve::WindowResult> out;
  while (s.server->poll(warm.id, &out) == 0)
    std::this_thread::sleep_for(kPollSleep);
  if (out.front().disposition != serve::Disposition::kCompleted)
    throw std::runtime_error("warm window not completed");
  s.server->leave(warm.id);
  return s;
}

class LiveRun {
 public:
  LiveRun(Setup& setup, const std::vector<UserFrames>& users,
          std::uint64_t seed)
      : sys_(*setup.sys), server_(*setup.server) {
    // Sessions start evenly spaced over one window period, shifted by an
    // offset drawn from the workload seed.  Independently drawn phases
    // make the tail depend on whether a seed happens to put two
    // sessions' windows on top of each other, which swamps any change
    // to the system; with even spacing, queue wait appears only when a
    // window's service outlasts the gap to the next session's window.
    mmhand::Rng rng(seed ^ 0x9a5e);
    sessions_.resize(setup.ids.size());
    const double gap_ms = kLimitMs / static_cast<double>(sessions_.size());
    const double offset_ms = rng.uniform(0.0, gap_ms);
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      sessions_[i].id = setup.ids[i];
      sessions_[i].user = &users[i];
      sessions_[i].phase_offset =
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(
                  offset_ms + gap_ms * static_cast<double>(i)));
    }
  }

  /// Offers frames on the 50 fps schedule for `seconds`, stopping each
  /// session at a window boundary, then waits for the tail to resolve.
  /// Returns the wall time from the first frame due to the last result
  /// received, in seconds.
  double run_phase(double seconds, int phase) {
    phase_ = phase;
    late_ms_.clear();
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (Session& s : sessions_) s.due = start + s.phase_offset;
    while (true) {
      Session* next = nullptr;
      for (Session& s : sessions_) {
        const bool done = s.due >= end && s.accepted % kWindowFrames == 0;
        if (!done && (next == nullptr || s.due < next->due)) next = &s;
      }
      if (next == nullptr) break;
      wait_until(next->due);
      offer_frame(*next);
    }
    // Every window resolves within its server deadline; two limits is
    // ample for the last one to be delivered.  Whatever is still
    // missing then was never delivered.
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(static_cast<int>(2 * kLimitMs));
    while (unresolved_ > 0 && Clock::now() < give_up) {
      poll_all();
      std::this_thread::sleep_for(kPollSleep);
    }
    const Clock::time_point stop = Clock::now();
    Clock::time_point first_due = end;
    for (Session& s : sessions_) {
      first_due = std::min(first_due, start + s.phase_offset);
      for (WindowRec& w : s.windows)
        if (w.phase == phase && !w.resolved) w.latency_ms = ms_between(w.due, stop);
    }
    return std::chrono::duration<double>(last_received_ - first_due).count();
  }

  std::vector<const WindowRec*> windows(int phase) const {
    std::vector<const WindowRec*> out;
    for (const Session& s : sessions_)
      for (const WindowRec& w : s.windows)
        if (w.phase == phase) out.push_back(&w);
    return out;
  }

  const std::vector<double>& late_ms() const { return late_ms_; }
  const std::vector<Session>& sessions() const { return sessions_; }

 private:
  void wait_until(Clock::time_point due) {
    while (true) {
      const Clock::time_point now = Clock::now();
      if (now >= due) return;
      poll_all();
      const Clock::duration left = due - Clock::now();
      if (left > Clock::duration::zero())
        std::this_thread::sleep_for(std::min<Clock::duration>(left, kPollSleep));
    }
  }

  void offer_frame(Session& s) {
    const int pool = static_cast<int>(s.offered % kPoolFrames);
    const Clock::time_point t0 = Clock::now();
    late_ms_.push_back(ms_between(s.due, t0));
    {
      MMHAND_SPAN("bench/process_frame_into");
      sys_.pipeline.process_frame_into(
          s.user->frames[static_cast<std::size_t>(pool)], &s.cube);
    }
    const Clock::time_point t1 = Clock::now();
    serve::SubmitResult r;
    {
      MMHAND_SPAN("bench/submit");
      r = server_.submit(s.id, s.cube);
    }
    const Clock::time_point t2 = Clock::now();
    if (r.session_unknown) throw std::runtime_error("session dropped");
    ++s.offered;
    // Only reject_new refuses frames, so under drop_oldest every frame is
    // accepted; serve.rejected would show it otherwise.
    if (r.accepted) {
      s.pool_index.push_back(pool);
      ++s.accepted;
      if (s.accepted % kWindowFrames == 0) {
        WindowRec w;
        w.phase = phase_;
        w.first_frame = s.accepted - kWindowFrames;
        w.due = s.due;
        w.late_ms = ms_between(s.due, t0);
        w.dsp_ms = ms_between(t0, t1);
        w.submit_ms = ms_between(t1, t2);
        w.ingest_ms = ms_between(s.due, t2);
        s.windows.push_back(std::move(w));
        ++unresolved_;
      }
    }
    s.due += kFramePeriod;
    poll_all();
  }

  void poll_all() {
    for (Session& s : sessions_) {
      {
        MMHAND_SPAN("bench/poll");
        server_.poll(s.id, &results_);
      }
      const Clock::time_point received = Clock::now();
      if (!results_.empty()) last_received_ = received;
      for (serve::WindowResult& r : results_) {
        if (r.seq >= s.windows.size())
          throw std::runtime_error("result for a window never offered");
        WindowRec& w = s.windows[r.seq];
        w.resolved = true;
        w.disposition = r.disposition;
        w.server_ms = r.e2e_ms;
        w.latency_ms = ms_between(w.due, received);
        w.mesh_done = r.mesh_done;
        w.mesh_ok = r.mesh_done && mesh_finite(r.mesh.mesh);
        // A copy, not the tensor: the server's tensors may carry a pooled
        // buffer far larger than the pose.
        w.pose.assign(r.pose.data(), r.pose.data() + r.pose.numel());
        --unresolved_;
      }
      results_.clear();
    }
  }

  System& sys_;
  serve::Server& server_;
  std::vector<Session> sessions_;
  std::vector<serve::WindowResult> results_;
  std::vector<double> late_ms_;
  Clock::time_point last_received_;
  long long unresolved_ = 0;
  int phase_ = 0;
};

bool window_ok(const WindowRec& w) {
  return w.resolved && w.disposition == serve::Disposition::kCompleted &&
         w.mesh_ok && w.latency_ms <= kLimitMs;
}

struct PhaseSummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  long long offered = 0;
  long long failed = 0;
  double frames_per_s = 0.0;
};

/// End-to-end figures of one phase plus the window ledger built from
/// the benchmark's own timestamps (no tracing needed).  A failed window
/// counts as over the limit: its latency is at least the limit.
PhaseSummary summarize(const LiveRun& run, int phase, double wall_s,
                       Report& report) {
  const auto ws = run.windows(phase);
  std::vector<double> latency, ingest, late, dsp, submit, server, delivery;
  PhaseSummary s;
  for (const WindowRec* w : ws) {
    const bool ok = window_ok(*w);
    if (!ok) ++s.failed;
    latency.push_back(ok ? w->latency_ms : std::max(kLimitMs, w->latency_ms));
    ingest.push_back(w->ingest_ms);
    late.push_back(w->late_ms);
    dsp.push_back(w->dsp_ms);
    submit.push_back(w->submit_ms);
    if (w->resolved) {
      server.push_back(w->server_ms);
      delivery.push_back(w->latency_ms - w->ingest_ms - w->server_ms);
    }
  }
  s.offered = static_cast<long long>(ws.size());
  s.p50_ms = percentile(latency, 50);
  s.p90_ms = percentile(latency, 90);
  s.frames_per_s = wall_s > 0.0
                       ? static_cast<double>((s.offered - s.failed) *
                                             kWindowFrames) / wall_s
                       : 0.0;
  report.note("  windows " + std::to_string(s.offered) + ", failed " +
              std::to_string(s.failed) + ", frames late-checked " +
              std::to_string(run.late_ms().size()));
  const double ingest_ms = mean(ingest);
  report.layer("window.latency_ms", mean(latency), "ms");
  report.layer("serve.ingest_ms", ingest_ms, "ms");
  report.layer("window.late_ms", mean(late), "ms");
  report.layer("window.dsp_ms", mean(dsp), "ms");
  report.layer("window.submit_ms", mean(submit), "ms");
  report.layer("serve.server_ms", mean(server), "ms");
  report.layer("serve.delivery_ms", mean(delivery), "ms");
  report.layer("gen.late_p50_ms", percentile(run.late_ms(), 50), "ms");
  report.layer("gen.late_max_ms", percentile(run.late_ms(), 100), "ms");
  return s;
}

/// Per-layer rows that need the span histograms of a traced phase.
void report_traced(const LiveRun& run, int phase,
                   const serve::ServerStats& before,
                   const serve::ServerStats& after, Report& report,
                   double* forward_per_window_ms) {
  report_radar_stages(report);
  const double batch = span_mean_ms("serve/forward_batch");
  const double spacenet = span_mean_ms("pose/spacenet_forward");
  const double lstm = span_mean_ms("nn/lstm_forward");
  const double mesh_ms = span_mean_ms("serve/mesh");
  report.layer("serve.forward_batch_ms", batch, "ms");
  report.layer("pose.spacenet_ms", spacenet, "ms");
  report.layer("pose.lstm_ms", lstm, "ms");
  report.layer("serve.mesh_ms", mesh_ms, "ms");
  report.remainder("serve.forward_unattributed_ms", batch,
                   {spacenet, lstm, mesh_ms}, "ms");
  std::vector<double> server;
  for (const WindowRec* w : run.windows(phase))
    if (w->resolved) server.push_back(w->server_ms);
  report.remainder("serve.queue_wait_ms", mean(server), {batch}, "ms");
  report.layer("serve.submit_us", 1000.0 * span_mean_ms("bench/submit"), "us");
  report.layer("serve.poll_us", 1000.0 * span_mean_ms("bench/poll"), "us");
  const double batches =
      static_cast<double>(after.batches - before.batches);
  const double batched = static_cast<double>(
      after.windows_completed - before.windows_completed +
      after.windows_missed - before.windows_missed);
  const double batch_mean = batches > 0.0 ? batched / batches : 0.0;
  report.layer("serve.batch_mean", batch_mean, "windows");
  report.layer("serve.max_ready_depth",
               static_cast<double>(after.max_ready_depth), "windows");
  report.layer("serve.shed",
               static_cast<double>(after.windows_shed - before.windows_shed),
               "count");
  report.layer("serve.missed",
               static_cast<double>(after.windows_missed - before.windows_missed),
               "count");
  report.layer("serve.rejected",
               static_cast<double>(after.frames_rejected -
                                   before.frames_rejected),
               "count");
  report.layer("mesh.reconstruct_us",
               1000.0 * span_mean_ms("mesh/reconstruct"), "us");
  report_gemm_rate(report);
  *forward_per_window_ms =
      batch_mean > 0.0 ? (batch - mesh_ms) / batch_mean : 0.0;
}

/// Drained parity: every pose the server delivered must equal, bit for
/// bit, HandJointRegressor::forward on the same window's cubes.
bool check_parity(System& sys, const LiveRun& run, Report& report) {
  long long checked = 0;
  long long bad = 0;
  for (const Session& s : run.sessions()) {
    std::map<int, nn::Tensor> expected;  // by first pool frame
    for (const WindowRec& w : s.windows) {
      if (w.mesh_done && !w.mesh_ok) ++bad;  // non-finite mesh vertices
      if (!w.resolved || w.disposition != serve::Disposition::kCompleted)
        continue;
      const int first = s.pool_index[static_cast<std::size_t>(w.first_frame)];
      bool contiguous = true;
      for (int f = 1; f < kWindowFrames; ++f)
        contiguous &= s.pool_index[static_cast<std::size_t>(w.first_frame + f)] ==
                      first + f;
      if (!contiguous) {
        ++bad;  // window frames do not map onto one pool window
        continue;
      }
      auto it = expected.find(first);
      if (it == expected.end())
        it = expected
                 .emplace(first, sys.model->forward(
                                     window_input(sys, s.user->frames, first,
                                                  kWindowFrames),
                                     false))
                 .first;
      ++checked;
      const nn::Tensor& want = it->second;
      if (w.pose.size() != want.numel() ||
          std::memcmp(w.pose.data(), want.data(),
                      want.numel() * sizeof(float)) != 0)
        ++bad;
    }
  }
  report.note("  parity: " + std::to_string(checked) +
              " delivered poses compared bitwise with forward(), " +
              std::to_string(bad) + " mismatched or non-finite");
  return bad == 0 && checked > 0;
}

}  // namespace

bool run_live(const Args& args, int sessions, Report& report,
              long long* attempted, long long* failed) {
  const std::vector<UserFrames> users =
      synthesize_users(radar::ChirpConfig{}, args.seed, sessions, kPoolFrames);

  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.server.reset();  // joins the scheduler before its model goes
    setup = Setup{};
    const Clock::time_point t0 = Clock::now();
    setup = build(sessions, users.front());
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  LiveRun run(setup, users, args.seed);
  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  report.note("# phase untraced");
  const double wall = run.run_phase(measure_s, 0);
  const PhaseSummary untraced = summarize(run, 0, wall, report);
  report.e2e("latency_p50_ms", untraced.p50_ms, "ms");
  report.e2e("latency_p90_ms", untraced.p90_ms, "ms");
  report.e2e("window_ok_ratio",
             untraced.offered > 0
                 ? static_cast<double>(untraced.offered - untraced.failed) /
                       static_cast<double>(untraced.offered)
                 : 0.0,
             "ratio");
  report.e2e("frames_per_s", untraced.frames_per_s, "1/s");
  report.e2e("setup_s", percentile(setup_s, 50), "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  *attempted = untraced.offered;
  *failed = untraced.failed;

  double forward_per_window_ms = 0.0;
  if (args.trace) {
    mmhand::obs::reset_metrics();
    mmhand::obs::set_metrics_enabled(true);
    const serve::ServerStats before = setup.server->stats();
    report.note("# phase traced");
    const double traced_wall = run.run_phase(measure_s, 1);
    const PhaseSummary traced = summarize(run, 1, traced_wall, report);
    report_traced(run, 1, before, setup.server->stats(), report,
                  &forward_per_window_ms);
    report.layer("trace.untraced_p50_ms", untraced.p50_ms, "ms");
    report.layer("trace.traced_p50_ms", traced.p50_ms, "ms");
    report.layer("trace.overhead_pct",
                 untraced.p50_ms > 0.0
                     ? 100.0 * (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms
                     : 0.0,
                 "%");
    *attempted += traced.offered;
    *failed += traced.failed;
  }

  // Join the scheduler before the model is used from this thread.
  setup.server.reset();
  report.note("# correctness");
  const bool correct = check_parity(*setup.sys, run, report);
  if (args.trace) {
    const double probe_forward_ms =
        run_layer_probe(*setup.sys, users.front(), report);
    report.layer("pose.traced_vs_probe_ms",
                 forward_per_window_ms - probe_forward_ms, "ms");
  }
  return correct;
}

}  // namespace e2ebench
