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
/// A pair enters Eq. 6 only through its shared-term set σ, so each sweep
/// walks the graph's term↔set incidences: score_σ = Σ_{t∈σ} x_t, then
/// x_t = Σ_{σ∋t} W_σ·score_σ / P_t with W_σ = Σ_{q∈σ} p_q summed once per
/// call. Pair scores are written once, from the final weights. This equals
/// the per-pair sweep up to summation order (DESIGN.md §4 states the
/// tolerance).
///
/// The metrics/trace sinks and cancellation come from `ctx`. ITER runs on
/// the calling thread and hands nothing to `ctx.pool` (DESIGN.md §4b), and
/// every sum adds in a fixed order, so results are bit-identical for any
/// thread count and any SIMD level. Cancellation is polled at entry and
/// once per sweep; a tripped token yields `Cancelled`/`DeadlineExceeded`
/// instead of a result.
Result<IterResult> RunIter(const BipartiteGraph& graph,
                           const std::vector<double>& edge_probability,
                           const IterOptions& options = {},
                           const ExecContext& ctx = DefaultExecContext());

/// RunIterDirty's worklist mark bytes, by TermId and by SetId. The caller
/// owns it and passes the same one to every call over a graph, so a
/// converge allocates nothing corpus-sized; the marks are all zero between
/// calls.
struct IterDirtyScratch {
  std::vector<uint8_t> term_mark;
  std::vector<uint8_t> set_mark;
};

/// Output of one dirty-region run.
struct IterDirtyResult {
  /// Worklist passes plus full sweeps.
  size_t sweeps = 0;
  bool converged = false;
  /// The run degraded to full sweeps (the frontier-size escape hatch).
  bool used_full_resweep = false;
  /// Pairs whose score was refreshed: the pairs of every refreshed set,
  /// set by set in ascending SetId (each set's pairs ascending).
  std::vector<PairId> touched_pairs;
};

/// Re-converges ITER over `graph` starting from the invalidated frontier
/// `dirty_terms`, updating `term_weights` in place and touching only the
/// region reachable from the frontier. It works on shared-term sets: a
/// term's update gathers Σ_{σ∋t} count_σ·score_σ over its sets, with
/// degree Σ_{σ∋t} count_σ. Each pass updates the frontier and the terms of
/// its sets in ascending id, Gauss–Seidel: a term that moves re-gathers its
/// own sets' scores at once (full gathers — never deltas, so no error
/// accumulates), so the next term reads current scores. The first pass
/// also refreshes the frontier's sets, whose scores may be stale.
/// The next frontier is the terms that moved more than the frontier
/// tolerance (1e-13, or the update's own rounding floor). A run stops when
/// the frontier drains or after 1,000 passes, whichever comes first.
///
/// `pair_scores` is both input and output. On entry every pair whose set
/// has no dirty term must hold s ≡ Σ_{t∈p} x_t, as every call leaves it
/// (sets with a dirty term are refreshed first, so a new pair may hold
/// anything). While the run works, score_σ lives in the score of σ's first
/// pair; on exit the pairs of every refreshed set take it, so s ≡ Σ x
/// holds exactly again.
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
/// are Jacobi. The run is serial (it does not use `ctx.pool`), so results
/// are bit-identical at any thread count. Cancellation is polled at entry
/// and once per pass; a tripped token yields the error status with the
/// weights mid-converge and only the first pairs of refreshed sets
/// rescored, but the structures valid — re-run with a full frontier, which
/// rescores every set, to recover.
Result<IterDirtyResult> RunIterDirty(
    const BipartiteGraph& graph, const std::vector<TermId>& dirty_terms,
    std::vector<double>* term_weights, std::vector<double>* pair_scores,
    IterDirtyScratch* scratch,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_H_
