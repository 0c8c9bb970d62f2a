#pragma once

// Shared plumbing of the end-to-end benchmark: command-line arguments,
// the paper-shape system under test, seeded input synthesis, sample
// statistics, and the report that prints every metric by name and unit.
//
// The benchmark drives the library only through its public API and
// times nothing but calls into it.  Its own spans (MMHAND_SPAN sites in
// these files) bracket each call so a traced run can split end-to-end
// time into per-layer self time.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mmhand/mesh/reconstruction.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/sim/dataset.hpp"

namespace e2ebench {

namespace hand = mmhand::hand;
namespace mesh = mmhand::mesh;
namespace nn = mmhand::nn;
namespace pose = mmhand::pose;
namespace radar = mmhand::radar;
namespace sim = mmhand::sim;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Frames per pose window (segment_frames x sequence_segments at the
/// default PoseNetConfig) and the IF frame period at the default
/// ChirpConfig.  One window period is both the server deadline and the
/// latency limit: a pose older than the next window is stale.
inline constexpr int kWindowFrames = 8;
inline constexpr double kFramePeriodMs = 20.0;
inline constexpr double kLimitMs = kWindowFrames * kFramePeriodMs;

/// Model weights are seeded from a constant, not the workload seed:
/// latency does not depend on training, and fixed weights keep the
/// post-ReLU sparsity (which gemm_acc exploits) out of seed-to-seed
/// spread.  Inputs still come from the workload seed.
inline constexpr std::uint64_t kWeightSeed = 0x5eed;

/// The paper-shape system: default ChirpConfig / PipelineConfig /
/// PoseNetConfig, seeded random network and mesh-net weights.
struct System {
  System();
  // The pipeline keeps a reference to `array`.
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  radar::ChirpConfig chirp;
  radar::AntennaArray array;
  radar::RadarPipeline pipeline;
  pose::PoseNetConfig net;
  std::unique_ptr<pose::HandJointRegressor> model;
  std::unique_ptr<mesh::MeshReconstructor> recon;
};

/// Raw IF frames of one simulated user performing a seeded gesture
/// script, with the noise-free joints of each frame.
struct UserFrames {
  int user_id = 0;
  std::vector<radar::IfFrame> frames;
  std::vector<hand::JointSet> joints;
};

/// Synthesizes `count` independent users of `frames` frames each from
/// the workload seed (GestureScript -> build_hand_scene ->
/// IfSimulator::simulate_frame), one thread per user.
std::vector<UserFrames> synthesize_users(const radar::ChirpConfig& chirp,
                                         std::uint64_t seed, int count,
                                         int frames);

/// Runs DSP over `frames` and stacks the normalized cubes of frames
/// [first, first + count) into one [count, V, D, A] network input.
nn::Tensor window_input(const System& sys,
                        const std::vector<radar::IfFrame>& frames, int first,
                        int count);

/// True when every vertex of the mesh is finite.
bool mesh_finite(const mesh::HandMesh& mesh);
/// True when every joint coordinate is finite.
bool joints_finite(const hand::JointSet& joints);

/// Sample statistics.  `percentile` interpolates linearly between
/// order statistics (q in [0, 100]); both return 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Every metric and ledger row of one run.  End-to-end metrics form the
/// result line of an untraced run, per-layer metrics that of a traced
/// run; every row is also printed as text above the result line.
class Report {
 public:
  void e2e(const std::string& name, double value, const char* unit);
  void layer(const std::string& name, double value, const char* unit);
  void note(const std::string& text);
  /// Adds a row holding `total` minus the sum of `parts`: the time a
  /// parent layer spent outside its measured children, so a missing
  /// layer shows up as a remainder instead of vanishing.
  void remainder(const std::string& name, double total,
                 const std::vector<double>& parts, const char* unit);

  /// Prints the result line: the end-to-end metrics (trace off) or the
  /// per-layer metrics (trace on), plus the correctness verdict.
  void print_result(bool trace, bool correct, long long attempted,
                    long long failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
};

/// Workload entry points.  Each builds its system `kSetupReps` times
/// (reporting the median as setup_s), measures for args.seconds, checks
/// outputs, and fills the report.  Returns false when a correctness
/// check failed.
inline constexpr int kSetupReps = 15;
bool run_live(const Args& args, int sessions, Report& report,
              long long* attempted, long long* failed);
bool run_offline(const Args& args, Report& report, long long* attempted,
                 long long* failed);

/// Standalone NN layer probe at the model's exact shapes (traced runs):
/// nn.* per-layer times reconciled against pose.forward_ms, plus the
/// pose.* probes.  `user` supplies real hand content.  Returns
/// pose.forward_ms.
double run_layer_probe(System& sys, const UserFrames& user, Report& report);

/// Rows from the span histograms and counters recorded while metrics
/// were on: per-frame radar stage times reconciled against the
/// benchmark's own process_frame_into span, and the NN GEMM rate.
void report_radar_stages(Report& report);
void report_gemm_rate(Report& report);

/// Mean duration per call and total duration (ms) of the span
/// histogram `name`.
double span_mean_ms(const char* name);
double span_total_ms(const char* name);

/// Peak resident set size of the process in MiB.
double peak_rss_mb();

}  // namespace e2ebench
