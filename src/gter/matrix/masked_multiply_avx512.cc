// The 8-wide instantiation of the masked product's panel kernel
// (panel_kernel.h): one zmm per 8 columns, eight zmm accumulators across a
// 64-column panel. Compiled with -ffp-contract=off, so `acc += w · x`
// stays a multiply and an add, as in the scalar sum it must equal bit for
// bit (DESIGN.md §4d).

#include "gter/matrix/panel_kernel.h"

#if GTER_HAVE_AVX512

namespace gter {
namespace internal {

void PanelProductRowsAvx512(const CsrMatrix& trans, const CsrMatrix& pattern,
                            const PanelScratch& scratch, size_t row_lo,
                            size_t row_hi, size_t* next, double* out_values) {
  typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));
  PanelProductRows<Vec8>(trans, pattern, scratch, row_lo, row_hi, next,
                         out_values);
}

}  // namespace internal
}  // namespace gter

#endif  // GTER_HAVE_AVX512
