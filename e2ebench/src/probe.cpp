// NN layer probe: the model's layers rebuilt from public nn:: classes at
// the exact shapes HandJointRegressor uses (default PoseNetConfig), fed
// one real window in the same order as the model's forward, and timed
// one call at a time.  The layer medians are reconciled against the
// median of the model's own forward; the remainder is its own row.

#include <map>

#include "bench.hpp"
#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/attention.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/pose/inference.hpp"
#include "mmhand/pose/mmspacenet.hpp"
#include "mmhand/pose/samples.hpp"

namespace e2ebench {
namespace {

constexpr int kLayerReps = 30;
constexpr int kBatchReps = 6;
constexpr int kCubeReps = 200;
constexpr int kRecordingReps = 6;
constexpr int kProbeBatch = 8;
constexpr int kProbeRecordingWindows = 4;

/// One mmSpaceNet residual attention block, as separate layers.
struct Block {
  Block(int in, int out, mmhand::Rng& rng)
      : skip(in, out, 1, 1, 0, rng),
        down1(in, out, 3, 2, 1, rng),
        down2(out, out, 3, 2, 1, rng),
        up1(out, out, 4, 2, 1, rng),
        up2(out, out, 4, 2, 1, rng),
        frame_att(rng),
        channel_att(out, rng),
        spatial_att(rng, 5) {}
  nn::Conv2d skip, down1, down2;
  nn::ConvTranspose2d up1, up2;
  nn::FrameChannelAttention frame_att;
  nn::ChannelAttention channel_att;
  nn::SpatialAttention spatial_att;
};

class LayerTimer {
 public:
  /// Times `layer.forward(x)` (inference mode) under `name`.
  nn::Tensor run(const std::string& name, nn::Layer& layer,
                 const nn::Tensor& x) {
    const Clock::time_point t0 = Clock::now();
    nn::Tensor y = layer.forward(x, false);
    samples_[name].push_back(ms_between(t0, Clock::now()));
    return y;
  }
  double median(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : percentile(it->second, 50);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

nn::Tensor block_forward(Block& b, const std::string& prefix,
                         const nn::Tensor& x, nn::ReLU& relu,
                         LayerTimer& timer) {
  const nn::Tensor skip = timer.run(prefix + ".skip", b.skip, x);
  nn::Tensor h = timer.run(prefix + ".down1", b.down1, x);
  h = relu.forward(h, false);
  h = timer.run(prefix + ".down2", b.down2, h);
  h = relu.forward(h, false);
  h = timer.run(prefix + ".up1", b.up1, h);
  h = relu.forward(h, false);
  h = timer.run(prefix + ".up2", b.up2, h);
  h.add_(skip);
  h = timer.run(prefix + ".frame_att", b.frame_att, h);
  h = timer.run(prefix + ".channel_att", b.channel_att, h);
  h = timer.run(prefix + ".spatial_att", b.spatial_att, h);
  return relu.forward(h, false);
}

const char* const kBlockLayers[] = {"skip",      "down1",       "down2",
                                    "up1",       "up2",         "frame_att",
                                    "channel_att", "spatial_att"};

}  // namespace

double run_layer_probe(System& sys, const UserFrames& user, Report& report) {
  report.note("# nn layer probe");
  // The probe is timed by its own clock reads; library spans stay off.
  mmhand::obs::set_metrics_enabled(false);
  const pose::PoseNetConfig& c = sys.net;
  const pose::MmSpaceNetConfig& sn = c.spacenet;
  const int frames = c.frames_per_sample();
  const int windows = static_cast<int>(user.frames.size()) / frames;
  const nn::Tensor x = window_input(sys, user.frames, 0, frames);

  mmhand::Rng rng(kWeightSeed + 1);
  nn::Conv2d stem(c.velocity_bins, sn.stem_channels, 3, 2, 1, rng);
  Block block1(sn.stem_channels, sn.block1_channels, rng);
  Block block2(sn.block1_channels, sn.block2_channels, rng);
  nn::Conv2d reduce(sn.block2_channels, sn.block2_channels, 3, 2, 1, rng);
  const int flat = c.segment_frames * sn.block2_channels *
                   (c.range_bins / pose::MmSpaceNet::kSpatialReduction) *
                   (c.angle_bins / pose::MmSpaceNet::kSpatialReduction);
  nn::Linear segment_fc(flat, c.feature_dim, rng);
  nn::Lstm lstm(c.feature_dim, c.lstm_hidden, rng);
  nn::Linear head(c.lstm_hidden, 63, rng);
  nn::ReLU relu;

  LayerTimer timer;
  std::vector<double> forward_ms;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    nn::Tensor h = timer.run("nn.stem", stem, x);
    h = relu.forward(h, false);
    h = block_forward(block1, "nn.block1", h, relu, timer);
    h = block_forward(block2, "nn.block2", h, relu, timer);
    h = timer.run("nn.reduce", reduce, h);
    h = relu.forward(h, false);
    nn::Tensor g = h.reshaped({c.sequence_segments, flat});
    g = timer.run("nn.segment_fc", segment_fc, g);
    g = relu.forward(g, false);
    g = timer.run("nn.lstm", lstm, g);
    g = timer.run("nn.head", head, g);

    const Clock::time_point t0 = Clock::now();
    const nn::Tensor y = sys.model->forward(x, false);
    forward_ms.push_back(ms_between(t0, Clock::now()));
  }
  const double forward = percentile(forward_ms, 50);
  report.layer("pose.forward_ms", forward, "ms");
  std::vector<std::string> names = {"nn.stem"};
  for (const char* block : {"nn.block1", "nn.block2"})
    for (const char* layer : kBlockLayers)
      names.push_back(std::string(block) + "." + layer);
  for (const char* name : {"nn.reduce", "nn.segment_fc", "nn.lstm", "nn.head"})
    names.emplace_back(name);
  std::vector<double> parts;
  for (const std::string& name : names) {
    parts.push_back(timer.median(name));
    report.layer(name, parts.back(), "ms");
  }
  report.remainder("nn.unattributed", forward, parts, "ms");

  // Cross-session batch: eight windows (cycling through the user's
  // distinct windows) in one forward_batch call, per window.
  nn::Tensor batch({kProbeBatch * frames, c.velocity_bins, c.range_bins,
                    c.angle_bins});
  for (int b = 0; b < kProbeBatch; ++b) {
    const nn::Tensor w =
        window_input(sys, user.frames, (b % windows) * frames, frames);
    std::copy(w.data(), w.data() + w.numel(),
              batch.data() + static_cast<std::size_t>(b) * w.numel());
  }
  std::vector<double> batch_ms;
  for (int rep = 0; rep < kBatchReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const nn::Tensor y = sys.model->forward_batch(batch, kProbeBatch);
    batch_ms.push_back(ms_between(t0, Clock::now()) / kProbeBatch);
  }
  report.layer("pose.forward_batch8_per_window_ms", percentile(batch_ms, 50),
               "ms");

  radar::RadarCube cube;
  sys.pipeline.process_frame_into(user.frames.front(), &cube);
  std::vector<float> dst(cube.size());
  std::vector<double> cube_us;
  for (int rep = 0; rep < kCubeReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pose::write_cube_frame(cube, c, dst.data());
    cube_us.push_back(us_between(t0, Clock::now()));
  }
  report.layer("pose.write_cube_frame_us", percentile(cube_us, 50), "us");

  const int rec_windows = std::min(windows, kProbeRecordingWindows);
  sim::Recording rec;
  rec.user_id = user.user_id;
  rec.frames.resize(static_cast<std::size_t>(rec_windows * frames));
  for (std::size_t f = 0; f < rec.frames.size(); ++f) {
    sys.pipeline.process_frame_into(user.frames[f], &rec.frames[f].cube);
    rec.frames[f].joints = user.joints[f];
  }
  std::vector<double> rec_ms;
  for (int rep = 0; rep < kRecordingReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const auto preds = pose::predict_recording(*sys.model, rec);
    rec_ms.push_back(ms_between(t0, Clock::now()) / rec_windows);
  }
  report.layer("pose.predict_recording_ms", percentile(rec_ms, 50), "ms");
  return forward;
}

}  // namespace e2ebench
