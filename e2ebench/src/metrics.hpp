#pragma once

// The metric set the benchmark declares in BENCHMARK.json, in print
// order.  An untraced run's result line carries the end-to-end set, a
// traced run's the per-layer set; tests/test_smoke.py checks that this
// table and BENCHMARK.json name the same metrics with the same units.

#include <span>

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"},    {"latency_p90_ms", "ms"},
    {"window_ok_ratio", "ratio"}, {"frames_per_s", "1/s"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
};

inline constexpr MetricSpec kPerLayer[] = {
    // Radar DSP, per IF frame (library radar/* spans inside the
    // benchmark's process_frame_into span).
    {"radar.process_frame_into_us", "us"},
    {"radar.bandpass_us", "us"},
    {"radar.range_fft_us", "us"},
    {"radar.doppler_fft_us", "us"},
    {"radar.cube_assembly_us", "us"},
    {"radar.zoom_angle_fft_us", "us"},
    {"radar.unattributed_us", "us"},
    {"radar.gflops", "GFLOP/s"},
    // Open-loop generator lateness over every frame (live workloads).
    {"gen.late_p50_ms", "ms"},
    {"gen.late_max_ms", "ms"},
    // Live window ledger, mean per window: latency = ingest + server +
    // delivery, ingest = late + dsp + submit, server = queue wait +
    // forward batch.  The server's clock starts inside submit (before it
    // copies the window), so delivery can read slightly below zero.
    {"window.latency_ms", "ms"},
    {"serve.ingest_ms", "ms"},
    {"window.late_ms", "ms"},
    {"window.dsp_ms", "ms"},
    {"window.submit_ms", "ms"},
    {"serve.server_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.delivery_ms", "ms"},
    // One batched NN step, mean per batch (library serve/forward_batch
    // span) = mmSpaceNet + LSTM + mesh + remainder.
    {"serve.forward_batch_ms", "ms"},
    {"pose.spacenet_ms", "ms"},
    {"pose.lstm_ms", "ms"},
    {"serve.mesh_ms", "ms"},
    {"serve.forward_unattributed_ms", "ms"},
    // Serving calls and queue state.
    {"serve.submit_us", "us"},
    {"serve.poll_us", "us"},
    {"serve.batch_mean", "windows"},
    {"serve.max_ready_depth", "windows"},
    {"serve.shed", "count"},
    {"serve.missed", "count"},
    {"serve.rejected", "count"},
    // Offline replay ledger, mean per recording: DSP + predict + mesh +
    // remainder; predict = windows x (mmSpaceNet + LSTM) + remainder.
    {"offline.recording_ms", "ms"},
    {"offline.dsp_ms", "ms"},
    {"offline.predict_ms", "ms"},
    {"offline.predict_unattributed_ms", "ms"},
    {"offline.mesh_ms", "ms"},
    {"offline.unattributed_ms", "ms"},
    {"mesh.reconstruct_us", "us"},
    // Standalone probes of the public pose entry points.
    {"pose.forward_ms", "ms"},
    {"pose.forward_batch8_per_window_ms", "ms"},
    {"pose.predict_recording_ms", "ms"},
    {"pose.write_cube_frame_us", "us"},
    // NN layer probe: public layer instances at the model's exact
    // shapes, fed real activations, timed one by one.  nn.unattributed
    // is pose.forward_ms minus their sum (activations, residual adds,
    // reshapes and anything a future layer adds).
    {"nn.stem", "ms"},
    {"nn.block1.skip", "ms"},
    {"nn.block1.down1", "ms"},
    {"nn.block1.down2", "ms"},
    {"nn.block1.up1", "ms"},
    {"nn.block1.up2", "ms"},
    {"nn.block1.frame_att", "ms"},
    {"nn.block1.channel_att", "ms"},
    {"nn.block1.spatial_att", "ms"},
    {"nn.block2.skip", "ms"},
    {"nn.block2.down1", "ms"},
    {"nn.block2.down2", "ms"},
    {"nn.block2.up1", "ms"},
    {"nn.block2.up2", "ms"},
    {"nn.block2.frame_att", "ms"},
    {"nn.block2.channel_att", "ms"},
    {"nn.block2.spatial_att", "ms"},
    {"nn.reduce", "ms"},
    {"nn.segment_fc", "ms"},
    {"nn.lstm", "ms"},
    {"nn.head", "ms"},
    {"nn.unattributed", "ms"},
    {"nn.gemm_gflops", "GFLOP/s"},
    // In-workload forward step (traced) minus the standalone probe.
    {"pose.traced_vs_probe_ms", "ms"},
    // Tracing cost: traced minus untraced end-to-end p50 (window latency
    // live, recording time offline) over the untraced value.
    {"trace.untraced_p50_ms", "ms"},
    {"trace.traced_p50_ms", "ms"},
    {"trace.overhead_pct", "%"},
    // Host calibration at the pool's thread count; recorded to interpret
    // a run, never gated.
    {"calib.parallelism", "x"},
    {"calib.core_ms", "ms"},
};

inline std::span<const MetricSpec> declared_metrics(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

}  // namespace e2ebench
