#ifndef GTER_CORE_ITER_H_
#define GTER_CORE_ITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// Per-sweep term-weight normalization of Algorithm 1, line 7.
enum class IterNormalization {
  /// The paper's default x ← 1/(1 + 1/x) = x/(1+x), mapping into (0, 1).
  kLogistic,
  /// L2 normalization Σ x² = 1 (mentioned as an alternative in §V-C).
  kL2,
};

/// Options for the ITER algorithm (Algorithm 1).
struct IterOptions {
  /// Stop when Σ_t |Δx_t| falls below this.
  double tolerance = 1e-7;
  size_t max_iterations = 100;
  IterNormalization normalization = IterNormalization::kLogistic;
  /// Seed for the random initialization of x_t in (0, 1).
  uint64_t seed = 42;
  /// Record Σ|Δx| per sweep (the Figure 5 trace).
  bool track_convergence = false;
};

/// Output of one ITER run.
struct IterResult {
  /// Learned term weight x_t (discrimination power), indexed by TermId.
  std::vector<double> term_weights;
  /// Learned pair similarity s(r_i, r_j), indexed by PairId.
  std::vector<double> pair_scores;
  size_t iterations = 0;
  bool converged = false;
  /// Σ_t |Δx_t| after each sweep, when track_convergence is set.
  std::vector<double> update_trace;
};

/// Runs ITER over the bipartite graph. `edge_probability[p]` is the
/// matching probability p(r_i, r_j) used as the pair→term edge weight of
/// Eq. 6 — pass a vector of 1.0 for the first fusion round (§V-C), or the
/// CliqueRank output in later rounds.
///
/// Execution (worker pool, metrics/trace sinks, cancellation) comes from
/// `ctx`. The propagation sweeps are parallelized over `ctx.pool`; each
/// term/pair accumulates over its own adjacency in a fixed order, so
/// results are bit-identical for any thread count and any SIMD level.
/// Cancellation is polled at entry and once per sweep; a tripped token
/// yields `Cancelled`/`DeadlineExceeded` instead of a result.
Result<IterResult> RunIter(const BipartiteGraph& graph,
                           const std::vector<double>& edge_probability,
                           const IterOptions& options = {},
                           const ExecContext& ctx = DefaultExecContext());

/// Options for the dirty-region ITER mode (DESIGN.md §4g). The converge's
/// other thresholds (frontier tolerance, noise floor, parking rule, pass
/// cap, full-resweep escape hatch) are constants in iter.cc; this one stays
/// settable so a test can keep a converge on its worklist.
struct IterDirtyOptions {
  /// Stall detector. After this many consecutive worklist passes whose
  /// largest |Δx| is numerical dust while the frontier persists, the run
  /// escalates (sticky) to full synchronous sweeps, which reach a
  /// bitwise-stationary fixed point.
  size_t stall_sweeps = 3;
};

/// Output of one dirty-region run.
struct IterDirtyResult {
  /// Worklist passes plus full sweeps.
  size_t sweeps = 0;
  bool converged = false;
  /// The run degraded to full sweeps (frontier-size escape hatch or stall
  /// escalation).
  bool used_full_resweep = false;
  /// The stall detector fired: the worklist spent `stall_sweeps` passes
  /// moving by numerical dust, and the run finished in full synchronous
  /// mode.
  bool stall_escalated = false;
  /// Terms whose weight changed, ascending.
  std::vector<TermId> touched_terms;
  /// Pairs whose score was refreshed, ascending.
  std::vector<PairId> touched_pairs;
};

/// Re-converges ITER over `graph` starting from the invalidated frontier
/// `dirty_terms`, updating `term_weights` / `pair_scores` in place and
/// touching only the region reachable from the frontier. Each pass updates
/// the frontier and the terms of its pairs in ascending id, Gauss–Seidel:
/// a term that moves re-gathers its own pairs' scores at once (full
/// gathers — never deltas, so no error accumulates), so the next term
/// reads current scores. The first pass also refreshes the frontier's
/// pairs, since new pairs enter with s = 0. The next frontier is the terms
/// that moved more than the frontier tolerance (1e-13, or the update's own
/// rounding floor). So s ≡ Σ_{t∈p} x_t holds exactly on exit.
///
/// The fixed point is the prob ≡ 1 ITER map (the §V-C first-round
/// semantics, logistic normalization) — a concave monotone map with one
/// positive attractor, so a drained worklist lands on the same weights as a
/// batch run over the final graph regardless of ingest order. Each term
/// update solves its own one-dimensional fixed point exactly (splitting
/// out the term's self-contribution to its scores), which removes the
/// harmonic tail of the plain sweep for weakly supported terms without
/// changing the fixed-point equations. Passing a frontier of *all* terms
/// with weights initialized to any positive constant therefore IS the
/// batch build: the escape hatch fires immediately, and its full sweeps
/// are Jacobi, parallel over fixed-width chunks. The worklist pass is
/// serial, so results are bit-identical at any thread count. Cancellation
/// is polled at entry and once per pass; a tripped token yields the error
/// status with the vectors mid-converge but structurally valid — re-run
/// with a full frontier to recover.
Result<IterDirtyResult> RunIterDirty(
    const BipartiteGraph& graph, const std::vector<TermId>& dirty_terms,
    const IterDirtyOptions& options, std::vector<double>* term_weights,
    std::vector<double>* pair_scores,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_H_
