#ifndef GTER_MATRIX_MASKED_MULTIPLY_H_
#define GTER_MATRIX_MASKED_MULTIPLY_H_

#include <cstddef>
#include <cstdlib>
#include <memory>

#include "gter/common/exec_context.h"
#include "gter/matrix/csr_matrix.h"

namespace gter {

/// The kernels behind CliqueRank's recurrence
///   M^k = M_t × (M^{k-1} ⊙ M_n).
///
/// Entries of M^k off the adjacency pattern M_n are annihilated by the
/// Hadamard mask at the next step and never contribute to the accumulated
/// matching probability (which is read only on graph edges), so the whole
/// iteration is confined to the structural pattern of M_n: the iterate
/// lives in a value array parallel to `pattern`'s, and each kernel
/// computes, for every structural entry (i, j) of `pattern` (values
/// ignored),
///
///   out[pos(i,j)] = Σ_k trans[i,k] · prev(k, j)
///
/// where prev(k, j) is the iterate at (k, j) on the pattern and 0 off it.
/// The sum runs over row i of `trans` in ascending k, each multiply and
/// add rounded separately. Both kernels keep exactly that order, so they
/// are bit-identical to each other (and to the dense-scratch reference the
/// tests hold them to) at every SIMD level and thread count. They differ
/// only in how they find prev(k, j). Both are parallelized over row chunks
/// via `ctx.pool` and polled for cancellation per chunk; on cancellation
/// they return early with `out_values` partially written.

/// Sparse-engine kernel: Gustavson style, row i gathers the pattern rows
/// of its trans neighbours, scaled, into an O(n) dense accumulator, reads
/// the pattern positions out and zeroes the touched entries. Cost:
/// Σ_{(i,j)∈pattern} nnz(trans row i) multiply-adds, O(n) extra memory per
/// worker chunk.
Status ComputeMaskedProductCsr(const CsrMatrix& trans,
                               const double* prev_values,
                               const CsrMatrix& pattern, double* out_values,
                               const ExecContext& ctx = DefaultExecContext());

/// The dense engine's one n×n buffer, column-panel-major: panel p holds
/// columns [64p, 64p + 64) of every row as an n × 64 row-major block, so a
/// panel (n · 512 bytes) stays in L2 while a chunk of rows reads it and
/// each panel row is one 64-byte-aligned 512-byte run. Zero when made;
/// `ComputeMaskedProductPanels` writes only pattern positions into it, so
/// off-pattern entries stay 0 for its lifetime.
class PanelScratch {
 public:
  static constexpr size_t kPanelWidth = 64;

  explicit PanelScratch(size_t n);

  size_t n() const { return n_; }
  size_t num_panels() const { return (n_ + kPanelWidth - 1) / kPanelWidth; }
  size_t bytes() const {
    return num_panels() * kPanelWidth * n_ * sizeof(double);
  }

  /// Panel p: entry (k, j) of the panel holding column j sits at
  /// panel(j / 64)[k · 64 + j % 64].
  double* panel(size_t p) { return data_.get() + p * n_ * kPanelWidth; }
  const double* panel(size_t p) const {
    return data_.get() + p * n_ * kPanelWidth;
  }

 private:
  struct Free {
    void operator()(double* p) const { std::free(p); }
  };
  size_t n_;
  std::unique_ptr<double, Free> data_;
};

/// Dense-engine kernel: scatters `prev_values` into `scratch`, then computes
/// every pattern entry as a dot product of trans row i with the scratch
/// column, vectorized across one 64-column panel at a time — 8 doubles wide
/// at `SimdLevel::kAvx512`, 2 wide (baseline SSE2) below it. Off-pattern
/// terms read 0 and add w·0.0 = +0.0, which leaves the sum unchanged
/// because every trans value is finite and ≥ 0 (a transition matrix; see
/// TransitionAndBoost). Cost: 64 · nnz(trans row i) multiply-adds for each
/// panel that holds a pattern entry of row i, with no index loads in the
/// inner loop — cheaper than the CSR kernel once the pattern is dense.
/// `scratch` must be made for `pattern.rows()` and is reused across steps.
Status ComputeMaskedProductPanels(
    const CsrMatrix& trans, const double* prev_values, const CsrMatrix& pattern,
    PanelScratch* scratch, double* out_values,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_MATRIX_MASKED_MULTIPLY_H_
