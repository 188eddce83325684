#ifndef GTER_MATRIX_MASKED_MULTIPLY_H_
#define GTER_MATRIX_MASKED_MULTIPLY_H_

#include "gter/common/exec_context.h"
#include "gter/matrix/csr_matrix.h"

namespace gter {

/// The sparse kernel behind CliqueRank's recurrence
///   M^k = M_t × (M^{k-1} ⊙ M_n).
///
/// Entries of M^k off the adjacency pattern M_n are annihilated by the
/// Hadamard mask at the next step and never contribute to the accumulated
/// matching probability (which is read only on graph edges), so the whole
/// iteration can be confined to the structural pattern of M_n.
///
/// `ComputeMaskedProduct` computes, for every structural entry (i, j) of
/// `pattern` (= M_n, values ignored):
///
///   out[pos(i,j)] = Σ_k trans[i,k] · prev_dense[k·n + j]
///
/// where `prev_dense` is an n×n row-major scratch buffer holding M^{k-1}
/// already masked to the pattern (zero elsewhere). Output is written into
/// `out_values`, parallel to the CSR value array of `pattern`.
///
/// Cost: Σ_{(i,j)∈pattern} nnz(trans row i) — linear in pattern edges times
/// average degree, vs. n³ for the dense product.
///
/// This dense-scratch kernel is the tests' bitwise reference for
/// `ComputeMaskedProductCsr`; CliqueRank runs the CSR kernel. Parallelized
/// over row chunks via `ctx.pool`, polled per row chunk; on cancellation
/// returns early with `out_values` partially written.
Status ComputeMaskedProduct(const CsrMatrix& trans, const double* prev_dense,
                            const CsrMatrix& pattern, double* out_values,
                            const ExecContext& ctx = DefaultExecContext());

/// Fully sparse variant of `ComputeMaskedProduct`: M^{k-1} stays in CSR
/// form (`prev_values`, parallel to `pattern`'s value array) instead of
/// being scattered into an n×n dense scratch. Row i is computed Gustavson
/// style — gather trans-row-i-scaled pattern rows into an O(n) dense
/// accumulator, read the pattern positions out, zero the touched entries —
/// so peak extra memory is O(n) per worker chunk rather than O(n²) shared.
///
/// Summation order per output entry matches the dense-scratch kernel
/// (ascending k over trans row i), so the two kernels are bit-identical.
Status ComputeMaskedProductCsr(const CsrMatrix& trans,
                               const double* prev_values,
                               const CsrMatrix& pattern, double* out_values,
                               const ExecContext& ctx = DefaultExecContext());

/// Scatters CSR `values` (parallel to `pattern`'s value array) into the
/// dense n×n row-major buffer `dense`, zeroing previous pattern positions
/// first. Off-pattern entries of `dense` are assumed to already be zero and
/// are not touched.
void ScatterToDense(const CsrMatrix& pattern, const double* values,
                    double* dense);

}  // namespace gter

#endif  // GTER_MATRIX_MASKED_MULTIPLY_H_
