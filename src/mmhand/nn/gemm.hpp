#pragma once

// Shared SGEMM kernels for the NN hot path.
//
// One cache-blocked, row-parallel matrix multiply backs Conv2d (im2col),
// ConvTranspose2d (per output phase), Linear, and the LSTM/GRU gate
// projections instead of per-layer ad-hoc loops.  All matrices are
// row-major and dense.  Every kernel *accumulates* into C (callers pre-fill
// C with the bias or zeros), and every kernel is deterministic: threads
// partition rows of C, and for a fixed output element the k-summation order
// never depends on the thread count, so results are bitwise identical at
// any `mmhand::num_threads()`.  No kernel skips zero operands: 0 * Inf must
// stay NaN so the numeric watchdog sees it.

namespace mmhand::nn {

/// C[m x n] += A[m x k] * B[k x n].
void gemm_acc(const float* a, const float* b, float* c, int m, int k, int n);

/// C[m x n] += A^T * B, with A stored row-major as [k x m].  This is the
/// transposed variant used by the backward passes (dX = W^T * dY).
void gemm_at_b_acc(const float* a, const float* b, float* c, int m, int k,
                   int n);

/// C[m x n] += A * B^T, with B stored row-major as [n x k].  Used where the
/// right operand is naturally row-major per output column (y = x W^T, and
/// dW = dY * cols^T).
void gemm_a_bt_acc(const float* a, const float* b, float* c, int m, int k,
                   int n);

/// y[m] += A[m x k] * x[k].  Row-parallel matrix-vector product for the
/// recurrent (per-timestep) gate projections.
void gemv_acc(const float* a, const float* x, float* y, int m, int k);

}  // namespace mmhand::nn
