#ifndef GTER_MATRIX_PANEL_KERNEL_H_
#define GTER_MATRIX_PANEL_KERNEL_H_

// The row loop of ComputeMaskedProductPanels, written once as a template
// over a GCC vector type and instantiated twice: 2 doubles wide in
// masked_multiply.cc (baseline ISA) and 8 wide in masked_multiply_avx512.cc.
// The template has internal linkage, so each of the two translation units
// compiles its own copy under its own ISA flags and the avx512 copy can
// never be linked into a baseline caller. Only those two files include
// this header. The loop allocates nothing and calls only small inline
// accessors and memcpy; the per-row cursors come from the caller.

#include <cstddef>
#include <cstring>

#include "gter/matrix/csr_matrix.h"
#include "gter/matrix/masked_multiply.h"

namespace gter {
namespace internal {

#if GTER_HAVE_AVX512
/// PanelProductRows at 8 doubles per vector (masked_multiply_avx512.cc).
void PanelProductRowsAvx512(const CsrMatrix& trans, const CsrMatrix& pattern,
                            const PanelScratch& scratch, size_t row_lo,
                            size_t row_hi, size_t* next, double* out_values);
#endif

namespace {

/// Writes out_values at every pattern entry of rows [row_lo, row_hi).
/// Panels run in the outer loop and rows in the inner one, so a panel is
/// read from L2 by the whole chunk. For each (row, panel) that holds a
/// pattern entry, eight vector accumulators sweep trans row i in ascending
/// k, `acc += t_ik · scratch row k`, one multiply and one add per lane
/// (the avx512 TU is compiled with -ffp-contract=off, the baseline TU has
/// no FMA), over 8 · lanes columns at a time. `next` holds row_hi − row_lo
/// cursors, the first pattern entry of each row not written yet; the
/// columns of a pattern row ascend, so the panels consume them in order.
template <typename V>
void PanelProductRows(const CsrMatrix& trans, const CsrMatrix& pattern,
                      const PanelScratch& scratch, size_t row_lo,
                      size_t row_hi, size_t* next, double* out_values) {
  constexpr size_t kWidth = PanelScratch::kPanelWidth;
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  constexpr size_t kAccumulators = 8;
  constexpr size_t kBlock = kLanes * kAccumulators;  // columns per sweep
  static_assert(kWidth % kBlock == 0);

  for (size_t i = row_lo; i < row_hi; ++i) next[i - row_lo] = 0;
  alignas(64) double sums[kWidth];
  for (size_t p = 0; p < scratch.num_panels(); ++p) {
    const double* panel = scratch.panel(p);
    const size_t col0 = p * kWidth;
    for (size_t i = row_lo; i < row_hi; ++i) {
      const auto cols = pattern.RowCols(i);
      size_t e = next[i - row_lo];
      if (e == cols.size() || cols[e] >= col0 + kWidth) continue;
      const auto t_cols = trans.RowCols(i);
      const auto t_vals = trans.RowValues(i);
      for (size_t b = 0; b < kWidth; b += kBlock) {
        V acc[kAccumulators] = {};
        for (size_t q = 0; q < t_cols.size(); ++q) {
          const double w = t_vals[q];
          const double* src = panel + size_t{t_cols[q]} * kWidth + b;
          for (size_t a = 0; a < kAccumulators; ++a) {
            V x;
            std::memcpy(&x, src + a * kLanes, sizeof(V));
            acc[a] += w * x;
          }
        }
        std::memcpy(sums + b, acc, sizeof(acc));
      }
      double* out = out_values + pattern.RowStart(i);
      for (; e < cols.size() && cols[e] < col0 + kWidth; ++e) {
        out[e] = sums[cols[e] - col0];
      }
      next[i - row_lo] = e;
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace gter

#endif  // GTER_MATRIX_PANEL_KERNEL_H_
