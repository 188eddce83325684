#include "gter/matrix/masked_multiply.h"

#include <cstring>
#include <vector>

#include "gter/common/cpu.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"
#include "gter/matrix/panel_kernel.h"

namespace gter {

Status ComputeMaskedProductCsr(const CsrMatrix& trans,
                               const double* prev_values,
                               const CsrMatrix& pattern, double* out_values,
                               const ExecContext& ctx) {
  GTER_CHECK(trans.rows() == pattern.rows());
  GTER_CHECK(trans.cols() == pattern.rows());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t n = pattern.cols();
  ParallelFor(ctx, 0, pattern.rows(), /*grain=*/8,
              [&](size_t lo, size_t hi) {
    if (ctx.cancelled()) return;
    // Dense row accumulator, reused (and re-zeroed) across the chunk's
    // rows — the only dense state of the sparse engine.
    std::vector<double> acc(n, 0.0);
    for (size_t i = lo; i < hi; ++i) {
      auto pat_cols = pattern.RowCols(i);
      if (pat_cols.empty()) continue;
      auto t_cols = trans.RowCols(i);
      auto t_vals = trans.RowValues(i);
      // acc[j] = Σ_k trans[i,k]·prev[k,j] in ascending k, the summation
      // order every masked kernel keeps.
      for (size_t p = 0; p < t_cols.size(); ++p) {
        const size_t k = t_cols[p];
        const double w = t_vals[p];
        auto prev_cols = pattern.RowCols(k);
        const double* pv = prev_values + pattern.RowStart(k);
        for (size_t e = 0; e < prev_cols.size(); ++e) {
          acc[prev_cols[e]] += w * pv[e];
        }
      }
      const size_t base = pattern.RowStart(i);
      for (size_t e = 0; e < pat_cols.size(); ++e) {
        out_values[base + e] = acc[pat_cols[e]];
      }
      // Zero exactly the entries the gather touched.
      for (size_t p = 0; p < t_cols.size(); ++p) {
        for (uint32_t c : pattern.RowCols(t_cols[p])) acc[c] = 0.0;
      }
    }
  });
  return ctx.CheckCancel();
}

PanelScratch::PanelScratch(size_t n) : n_(n) {
  const size_t size = bytes();
  if (size == 0) return;
  // bytes() is a multiple of 512, as aligned_alloc requires.
  data_.reset(static_cast<double*>(std::aligned_alloc(64, size)));
  GTER_CHECK(data_ != nullptr);
  std::memset(data_.get(), 0, size);
}

Status ComputeMaskedProductPanels(const CsrMatrix& trans,
                                  const double* prev_values,
                                  const CsrMatrix& pattern,
                                  PanelScratch* scratch, double* out_values,
                                  const ExecContext& ctx) {
  GTER_CHECK(trans.rows() == pattern.rows());
  GTER_CHECK(trans.cols() == pattern.rows());
  GTER_CHECK(scratch->n() == pattern.rows());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t n = pattern.rows();
  constexpr size_t kWidth = PanelScratch::kPanelWidth;
  // Row k of every panel is written only from pattern row k, so chunks of
  // the scatter are independent.
  ParallelFor(ctx, 0, n, /*grain=*/64, [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      auto cols = pattern.RowCols(k);
      const double* v = prev_values + pattern.RowStart(k);
      for (size_t e = 0; e < cols.size(); ++e) {
        scratch->panel(cols[e] / kWidth)[k * kWidth + cols[e] % kWidth] = v[e];
      }
    }
  });

  // The level is read once, on the calling thread (DESIGN.md §4d).
  typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
  auto* rows = &internal::PanelProductRows<Vec2>;
#if GTER_HAVE_AVX512
  if (ActiveSimdLevel() >= SimdLevel::kAvx512) {
    rows = &internal::PanelProductRowsAvx512;
  }
#endif
  ParallelFor(ctx, 0, n, /*grain=*/16, [&](size_t lo, size_t hi) {
    if (ctx.cancelled()) return;  // skip the chunk; reported after the join
    std::vector<size_t> next(hi - lo);
    rows(trans, pattern, *scratch, lo, hi, next.data(), out_values);
  });
  return ctx.CheckCancel();
}

}  // namespace gter
