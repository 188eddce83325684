// AVX2 twin of the CSR masked-product kernel. It carries a stricter
// contract than the packed GEMM: outputs are BIT-IDENTICAL to the scalar
// twin (and hence to the dense-scratch reference kernel). It vectorizes
// only the multiply of the Gustavson scatter (exact per lane) and the
// position read-out (a copy); the adds into the dense accumulator stay
// scalar in the original order.

#include "gter/matrix/matrix_simd.h"

#if GTER_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>
#include <vector>

#include "gter/common/thread_pool.h"

namespace gter {
namespace internal {

Status MaskedProductCsrAvx2(const CsrMatrix& trans, const double* prev_values,
                            const CsrMatrix& pattern, double* out_values,
                            const ExecContext& ctx) {
  const size_t n = pattern.cols();
  ParallelFor(ctx.pool, 0, pattern.rows(), /*grain=*/8, [&](size_t lo,
                                                            size_t hi) {
    if (ctx.cancelled()) return;
    std::vector<double> acc(n, 0.0);
    for (size_t i = lo; i < hi; ++i) {
      auto pat_cols = pattern.RowCols(i);
      if (pat_cols.empty()) continue;
      auto t_cols = trans.RowCols(i);
      auto t_vals = trans.RowValues(i);
      for (size_t p = 0; p < t_cols.size(); ++p) {
        const size_t k = t_cols[p];
        const __m256d w = _mm256_set1_pd(t_vals[p]);
        auto prev_cols = pattern.RowCols(k);
        const double* pv = prev_values + pattern.RowStart(k);
        size_t e = 0;
        alignas(32) double prod[4];
        for (; e + 4 <= prev_cols.size(); e += 4) {
          // The products are exact per lane; the adds scatter to distinct
          // columns (pattern rows have unique sorted cols), so doing them
          // scalar keeps the accumulator bit-identical to the scalar twin.
          _mm256_store_pd(prod, _mm256_mul_pd(w, _mm256_loadu_pd(pv + e)));
          acc[prev_cols[e + 0]] += prod[0];
          acc[prev_cols[e + 1]] += prod[1];
          acc[prev_cols[e + 2]] += prod[2];
          acc[prev_cols[e + 3]] += prod[3];
        }
        for (; e < prev_cols.size(); ++e) {
          acc[prev_cols[e]] += t_vals[p] * pv[e];
        }
      }
      const size_t base = pattern.RowStart(i);
      size_t e = 0;
      for (; e + 4 <= pat_cols.size(); e += 4) {
        const __m128i cols = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(pat_cols.data() + e));
        _mm256_storeu_pd(out_values + base + e,
                         _mm256_i32gather_pd(acc.data(), cols, 8));
      }
      for (; e < pat_cols.size(); ++e) {
        out_values[base + e] = acc[pat_cols[e]];
      }
      for (size_t p = 0; p < t_cols.size(); ++p) {
        for (uint32_t c : pattern.RowCols(t_cols[p])) acc[c] = 0.0;
      }
    }
  });
  return ctx.CheckCancel();
}

}  // namespace internal
}  // namespace gter

#endif  // GTER_HAVE_AVX2
