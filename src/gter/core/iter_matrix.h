#ifndef GTER_CORE_ITER_MATRIX_H_
#define GTER_CORE_ITER_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// The matrix formulation of ITER from §V-D (Theorem 1): the update rules
///
///   y = Sᵀ x        (pair scores from term weights)
///   x = D⁻¹ S C y   (term weights from probability-weighted pair scores)
///
/// compose into y ← (Sᵀ D⁻¹ S C) y, whose normalized iterates converge to
/// the principal eigenvector of M = Sᵀ D⁻¹ S C. This module computes that
/// stationary solution directly by power iteration — it exists to validate
/// the convergence theorem against Algorithm 1's sweep implementation and
/// to expose the spectral view (eigenvalue, residual) for analysis.
struct IterMatrixOptions {
  size_t max_iterations = 500;
  /// Stop when the L2 change of the unit-normalized iterate drops below
  /// this.
  double tolerance = 1e-12;
  uint64_t seed = 42;
};

struct IterMatrixResult {
  /// Stationary pair-score vector y* (unit L2 norm), indexed by PairId.
  std::vector<double> pair_scores;
  /// x* = D⁻¹ S C y*, indexed by TermId.
  std::vector<double> term_weights;
  /// Rayleigh-quotient estimate of the principal eigenvalue of M.
  double eigenvalue = 0.0;
  /// ‖M y* − λ y*‖₂ — how close the returned vector is to an eigenvector.
  double residual = 0.0;
  size_t iterations = 0;
  bool converged = false;
};

/// Runs the power iteration on M = Sᵀ D⁻¹ S C built from `graph` and the
/// per-pair edge probabilities C (the CliqueRank output, or all-ones).
/// The M·y applications are parallelized over `ctx.pool` (bit-identical
/// for any thread count); cancellation is polled at entry and once per
/// power iteration.
Result<IterMatrixResult> RunIterMatrixForm(
    const BipartiteGraph& graph, const std::vector<double>& edge_probability,
    const IterMatrixOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_MATRIX_H_
