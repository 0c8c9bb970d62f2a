#include "mmhand/nn/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "mmhand/common/parallel.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::nn {

namespace {

/// Call/FLOP/byte accounting for every GEMM variant.  Disabled cost:
/// one relaxed atomic load; enabled cost: three sharded relaxed adds.
/// Bytes are the compulsory-traffic estimate (read A and B once, read+
/// write C once, 4-byte floats) that `mmhand_report --roofline` divides
/// flops by for arithmetic intensity; cache reuse makes real DRAM
/// traffic lower, so the estimate is an upper bound on bytes moved.
inline void note_gemm(std::int64_t m, std::int64_t k, std::int64_t n) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::counter("nn/gemm.calls");
  static obs::Counter& flops = obs::counter("nn/gemm.flops");
  static obs::Counter& bytes = obs::counter("nn/gemm.bytes");
  calls.add(1);
  flops.add(2 * m * k * n);
  bytes.add(4 * (m * k + k * n + 2 * m * n));
}

// Register/cache blocking.  kMB rows of C per task keep a packed stripe of
// A in L1 while a [kKB x kNB] tile of B (128 KiB at floats) streams through
// L2; tasks are whole C tiles so each output element has exactly one
// writer.
constexpr int kMB = 16;
constexpr int kKB = 128;
constexpr int kNB = 256;

// Minimum flops per parallel task; below this the dispatch overhead wins
// and `parallel_for` collapses to the serial path via its grain check.
constexpr std::int64_t kMinChunkFlops = 1 << 15;

int num_blocks(int extent, int block) { return (extent + block - 1) / block; }

/// Tiles per parallel task so each task carries at least kMinChunkFlops.
std::int64_t tile_grain(std::int64_t flops_per_tile) {
  return std::max<std::int64_t>(
      1, (kMinChunkFlops + flops_per_tile - 1) / std::max<std::int64_t>(
                                                     1, flops_per_tile));
}

}  // namespace

void gemm_acc(const float* a, const float* b, float* c, int m, int k,
              int n) {
  note_gemm(m, k, n);
  MMHAND_SPAN("nn/gemm");
  // Split C along its larger dimension so small-m multiplies (e.g. Conv2d
  // with few output channels but a wide im2col matrix) still fan out.  For
  // any split the k-loop order per output element is fixed (pp then p,
  // ascending), so results are thread-count invariant.
  if (m >= n / 2) {
    const std::int64_t grain = tile_grain(2ll * kMB * k * n);
    parallel_for(0, num_blocks(m, kMB), grain, [=](std::int64_t bi) {
      const int i0 = static_cast<int>(bi) * kMB;
      const int i1 = std::min(m, i0 + kMB);
      for (int jj = 0; jj < n; jj += kNB) {
        const int j1 = std::min(n, jj + kNB);
        for (int pp = 0; pp < k; pp += kKB) {
          const int p1 = std::min(k, pp + kKB);
          for (int i = i0; i < i1; ++i) {
            const float* ai = a + static_cast<std::size_t>(i) * k;
            float* ci = c + static_cast<std::size_t>(i) * n;
            for (int p = pp; p < p1; ++p) {
              const float av = ai[p];
              const float* bp = b + static_cast<std::size_t>(p) * n;
              for (int j = jj; j < j1; ++j) ci[j] += av * bp[j];
            }
          }
        }
      }
    });
  } else {
    const std::int64_t grain = tile_grain(2ll * m * k * kNB);
    parallel_for(0, num_blocks(n, kNB), grain, [=](std::int64_t bj) {
      const int j0 = static_cast<int>(bj) * kNB;
      const int j1 = std::min(n, j0 + kNB);
      for (int pp = 0; pp < k; pp += kKB) {
        const int p1 = std::min(k, pp + kKB);
        for (int i = 0; i < m; ++i) {
          const float* ai = a + static_cast<std::size_t>(i) * k;
          float* ci = c + static_cast<std::size_t>(i) * n;
          for (int p = pp; p < p1; ++p) {
            const float av = ai[p];
            const float* bp = b + static_cast<std::size_t>(p) * n;
            for (int j = j0; j < j1; ++j) ci[j] += av * bp[j];
          }
        }
      }
    });
  }
}

void gemm_at_b_acc(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  note_gemm(m, k, n);
  MMHAND_SPAN("nn/gemm");
  const std::int64_t grain = tile_grain(2ll * kMB * k * n);
  parallel_for(0, num_blocks(m, kMB), grain, [=](std::int64_t bi) {
    const int i0 = static_cast<int>(bi) * kMB;
    const int i1 = std::min(m, i0 + kMB);
    for (int pp = 0; pp < k; pp += kKB) {
      const int p1 = std::min(k, pp + kKB);
      for (int i = i0; i < i1; ++i) {
        float* ci = c + static_cast<std::size_t>(i) * n;
        for (int p = pp; p < p1; ++p) {
          const float av = a[static_cast<std::size_t>(p) * m + i];
          const float* bp = b + static_cast<std::size_t>(p) * n;
          for (int j = 0; j < n; ++j) ci[j] += av * bp[j];
        }
      }
    }
  });
}

void gemm_a_bt_acc(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  note_gemm(m, k, n);
  MMHAND_SPAN("nn/gemm");
  // Dot-product form: every output is one full-length k scan, accumulated
  // in a scalar before touching C, so k-blocking is unnecessary and the
  // summation order is trivially fixed.
  if (m >= n / 2) {
    const std::int64_t grain = tile_grain(2ll * kMB * k * n);
    parallel_for(0, num_blocks(m, kMB), grain, [=](std::int64_t bi) {
      const int i0 = static_cast<int>(bi) * kMB;
      const int i1 = std::min(m, i0 + kMB);
      for (int i = i0; i < i1; ++i) {
        const float* ai = a + static_cast<std::size_t>(i) * k;
        float* ci = c + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float* bj = b + static_cast<std::size_t>(j) * k;
          float acc = 0.0f;
          for (int p = 0; p < k; ++p) acc += ai[p] * bj[p];
          ci[j] += acc;
        }
      }
    });
  } else {
    const std::int64_t grain = tile_grain(2ll * m * k * kNB);
    parallel_for(0, num_blocks(n, kNB), grain, [=](std::int64_t blk) {
      const int j0 = static_cast<int>(blk) * kNB;
      const int j1 = std::min(n, j0 + kNB);
      for (int i = 0; i < m; ++i) {
        const float* ai = a + static_cast<std::size_t>(i) * k;
        float* ci = c + static_cast<std::size_t>(i) * n;
        for (int j = j0; j < j1; ++j) {
          const float* bj = b + static_cast<std::size_t>(j) * k;
          float acc = 0.0f;
          for (int p = 0; p < k; ++p) acc += ai[p] * bj[p];
          ci[j] += acc;
        }
      }
    });
  }
}

void gemv_acc(const float* a, const float* x, float* y, int m, int k) {
  note_gemm(m, k, 1);
  MMHAND_SPAN("nn/gemm");
  const std::int64_t grain = std::max<std::int64_t>(
      1, kMinChunkFlops / (2 * std::max(k, 1)));
  parallel_for(0, m, grain, [=](std::int64_t i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    float acc = 0.0f;
    for (int p = 0; p < k; ++p) acc += ai[p] * x[p];
    y[i] += acc;
  });
}

}  // namespace mmhand::nn
