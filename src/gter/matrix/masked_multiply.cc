#include "gter/matrix/masked_multiply.h"

#include <vector>

#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {

Status ComputeMaskedProduct(const CsrMatrix& trans, const double* prev_dense,
                            const CsrMatrix& pattern, double* out_values,
                            const ExecContext& ctx) {
  GTER_CHECK(trans.rows() == pattern.rows());
  GTER_CHECK(trans.cols() == pattern.rows());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t n = pattern.cols();
  ParallelFor(ctx.pool, 0, pattern.rows(), /*grain=*/8,
              [&](size_t lo, size_t hi) {
    if (ctx.cancelled()) return;  // skip the chunk; reported after the join
    for (size_t i = lo; i < hi; ++i) {
      auto pat_cols = pattern.RowCols(i);
      if (pat_cols.empty()) continue;
      auto t_cols = trans.RowCols(i);
      auto t_vals = trans.RowValues(i);
      // out position base for row i of the pattern.
      int64_t base = pattern.PositionOf(i, pat_cols[0]);
      for (size_t e = 0; e < pat_cols.size(); ++e) {
        const size_t j = pat_cols[e];
        double acc = 0.0;
        for (size_t p = 0; p < t_cols.size(); ++p) {
          acc += t_vals[p] * prev_dense[static_cast<size_t>(t_cols[p]) * n + j];
        }
        out_values[static_cast<size_t>(base) + e] = acc;
      }
    }
  });
  return ctx.CheckCancel();
}

Status ComputeMaskedProductCsr(const CsrMatrix& trans,
                               const double* prev_values,
                               const CsrMatrix& pattern, double* out_values,
                               const ExecContext& ctx) {
  GTER_CHECK(trans.rows() == pattern.rows());
  GTER_CHECK(trans.cols() == pattern.rows());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t n = pattern.cols();
  ParallelFor(ctx.pool, 0, pattern.rows(), /*grain=*/8,
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
      // acc[j] = Σ_k trans[i,k]·prev[k,j]; ascending k keeps the per-entry
      // summation order identical to the dense-scratch kernel.
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

void ScatterToDense(const CsrMatrix& pattern, const double* values,
                    double* dense) {
  const size_t n = pattern.cols();
  size_t pos = 0;
  for (size_t i = 0; i < pattern.rows(); ++i) {
    for (uint32_t j : pattern.RowCols(i)) {
      dense[i * n + j] = values[pos++];
    }
  }
}

}  // namespace gter
