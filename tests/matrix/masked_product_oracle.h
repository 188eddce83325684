#ifndef GTER_TESTS_MATRIX_MASKED_PRODUCT_ORACLE_H_
#define GTER_TESTS_MATRIX_MASKED_PRODUCT_ORACLE_H_

// The scalar semantics both production masked-product kernels
// (masked_multiply.h) must reproduce bit for bit: M^{k-1} scattered into an
// n×n row-major dense scratch that is zero off the pattern, and every
// pattern entry (i, j) summed as Σ_k trans[i,k] · scratch[k·n + j] over
// row i of trans in ascending k. Shared by the matrix, differential and
// simd tests; the library has no copy of it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/matrix/csr_matrix.h"

namespace gter {

/// Writes CSR `values` (parallel to `pattern`'s value array) into the n×n
/// row-major buffer `dense` at the pattern positions, overwriting what was
/// there. Off-pattern entries are not touched, so they stay zero in a
/// buffer that started zero.
inline void ScatterToDense(const CsrMatrix& pattern, const double* values,
                           double* dense) {
  const size_t n = pattern.cols();
  size_t pos = 0;
  for (size_t i = 0; i < pattern.rows(); ++i) {
    for (uint32_t j : pattern.RowCols(i)) dense[i * n + j] = values[pos++];
  }
}

/// out_values[pos(i,j)] = Σ_k trans[i,k] · prev_dense[k·n + j] for every
/// structural entry (i, j) of `pattern`, in ascending k over trans row i.
inline void ComputeMaskedProduct(const CsrMatrix& trans,
                                 const double* prev_dense,
                                 const CsrMatrix& pattern,
                                 double* out_values) {
  const size_t n = pattern.cols();
  for (size_t i = 0; i < pattern.rows(); ++i) {
    auto t_cols = trans.RowCols(i);
    auto t_vals = trans.RowValues(i);
    double* out = out_values + pattern.RowStart(i);
    auto pat_cols = pattern.RowCols(i);
    for (size_t e = 0; e < pat_cols.size(); ++e) {
      double acc = 0.0;
      for (size_t p = 0; p < t_cols.size(); ++p) {
        acc += t_vals[p] * prev_dense[size_t{t_cols[p]} * n + pat_cols[e]];
      }
      out[e] = acc;
    }
  }
}

/// Both steps at once: the oracle's product of the CSR iterate `prev`.
inline std::vector<double> MaskedProductOracle(const CsrMatrix& trans,
                                               const std::vector<double>& prev,
                                               const CsrMatrix& pattern) {
  const size_t n = pattern.cols();
  std::vector<double> dense(n * n, 0.0);
  ScatterToDense(pattern, prev.data(), dense.data());
  std::vector<double> out(pattern.nnz(), 0.0);
  ComputeMaskedProduct(trans, dense.data(), pattern, out.data());
  return out;
}

}  // namespace gter

#endif  // GTER_TESTS_MATRIX_MASKED_PRODUCT_ORACLE_H_
