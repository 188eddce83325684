#include "gter/matrix/gemm.h"

#include <algorithm>
#include <cstring>

#include "gter/common/cpu.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"
#include "gter/matrix/matrix_simd.h"

namespace gter {
namespace {

// Panel sizes tuned for L1/L2 residency on commodity x86: a 64×256 panel of
// B (128 KiB) stays hot while we stream rows of A through it.
constexpr size_t kBlockK = 64;
constexpr size_t kBlockN = 256;

// C[row_lo:row_hi) += A[row_lo:row_hi) × B using blocked i-k-j with a
// broadcast-axpy inner loop (vectorizes cleanly under -O3). This is the
// scalar reference kernel `--simd=scalar` pins.
void GemmRows(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
              size_t row_lo, size_t row_hi) {
  const size_t k_dim = a.cols();
  const size_t n_dim = b.cols();
  for (size_t k0 = 0; k0 < k_dim; k0 += kBlockK) {
    const size_t k1 = std::min(k0 + kBlockK, k_dim);
    for (size_t n0 = 0; n0 < n_dim; n0 += kBlockN) {
      const size_t n1 = std::min(n0 + kBlockN, n_dim);
      for (size_t i = row_lo; i < row_hi; ++i) {
        const double* a_row = a.row(i);
        double* c_row = c->row(i);
        // Sparsity is exploited at panel granularity only: one pass over
        // the k-panel of this row, then a branch-free inner loop. The old
        // per-element `if (a_ik == 0.0) continue;` skip sat in the hottest
        // loop and mispredicted on anything but near-empty rows.
        bool panel_nonzero = false;
        for (size_t k = k0; k < k1; ++k) panel_nonzero |= (a_row[k] != 0.0);
        if (!panel_nonzero) continue;
        for (size_t k = k0; k < k1; ++k) {
          const double a_ik = a_row[k];
          const double* b_row = b.row(k);
          for (size_t j = n0; j < n1; ++j) {
            c_row[j] += a_ik * b_row[j];
          }
        }
      }
    }
  }
}

}  // namespace

Status Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
            const ExecContext& ctx) {
  GTER_CHECK(a.cols() == b.rows());
  // `*c` is zero-initialized before `a`/`b` are read, so aliasing an input
  // would silently compute garbage.
  GTER_CHECK(c != &a && c != &b);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  *c = DenseMatrix(a.rows(), b.cols(), 0.0);
#if GTER_HAVE_AVX512
  if (ActiveSimdLevel() >= SimdLevel::kAvx512) {
    return internal::GemmPackedAvx512(a, b, c, ctx);
  }
#endif
#if GTER_HAVE_AVX2
  if (ActiveSimdLevel() >= SimdLevel::kAvx2) {
    return internal::GemmPackedAvx2(a, b, c, ctx);
  }
#endif
  ParallelFor(ctx.pool, 0, a.rows(), /*grain=*/16, [&](size_t lo, size_t hi) {
    // Workers cannot return a Status mid-ParallelFor; they poll once per
    // row block and skip the remaining work, and the entry point reports
    // the trip after the join. Skipped blocks leave zeros in *c, which the
    // error return marks as unspecified.
    if (ctx.cancelled()) return;
    GemmRows(a, b, c, lo, hi);
  });
  return ctx.CheckCancel();
}

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b,
                     const ExecContext& ctx) {
  ExecContext no_cancel = ctx;
  no_cancel.cancel = nullptr;
  DenseMatrix c;
  GTER_CHECK_OK(Gemm(a, b, &c, no_cancel));
  return c;
}

}  // namespace gter
