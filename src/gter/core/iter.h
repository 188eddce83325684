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
/// other thresholds (frontier tolerance, noise floor, parking rules, sweep
/// cap, full-resweep escape hatch) are constants in iter.cc; these four
/// stay settable so a test can force the subsystem-solve or stall path.
struct IterDirtyOptions {
  /// Stall detector. After this many consecutive sweeps whose largest |Δx|
  /// is numerical dust while the frontier persists, the run escalates
  /// (sticky) to full synchronous sweeps, which have no delays, no rotation
  /// modes, and reach a bitwise-stationary fixed point. A genuinely
  /// converging run crosses the dust band in a sweep or two and never
  /// trips this.
  size_t stall_sweeps = 3;
  /// Hub-coupled subsystem solve. A single ingest whose terms include a
  /// hub (a term on thousands of pairs — street suffixes, shared venue
  /// words) perturbs a small strongly-coupled set: the hubs plus the
  /// mid-degree terms they share pairs with. The worklist contracts that
  /// set only ~half a decade per sweep, and every sweep re-gathers the
  /// hubs' full adjacencies — tens of thousands of pair reads to move a
  /// few dozen terms by 1e-8. When the frontier still holds a term of
  /// degree ≥ `subsystem_hub_degree` after `subsystem_min_sweeps` sweeps
  /// and the sweep's largest move is under `subsystem_delta` (the slow
  /// tail — real signal, just converging slowly), the run freezes the
  /// frontier's one-hop term closure, builds the closed-form reduced
  /// system total_t = base_t + Σ_u M[t,u]·x_u (M[t,u] = pairs shared by t
  /// and u — hub↔hub coupling collapses from thousands of pair reads to
  /// one multiply), and iterates it serially to bitwise stationarity. The
  /// result is written back and re-verified by a normal exact sweep, which
  /// recruits any neighbor the reduced system missed. The solve is plain
  /// serial arithmetic over sorted ids — bit-identical at any thread count.
  double subsystem_delta = 1e-7;
  size_t subsystem_min_sweeps = 6;
  size_t subsystem_hub_degree = 1024;
};

/// Output of one dirty-region run.
struct IterDirtyResult {
  size_t sweeps = 0;
  bool converged = false;
  /// The run degraded to full sweeps (frontier-size escape hatch or stall
  /// escalation).
  bool used_full_resweep = false;
  /// The stall detector fired: the worklist was cycling on numerical dust
  /// and the run finished in full synchronous mode.
  bool stall_escalated = false;
  /// Hub-coupled subsystem solves performed (see
  /// IterDirtyOptions::subsystem_delta).
  size_t subsystem_solves = 0;
  /// Terms whose weight changed, ascending.
  std::vector<TermId> touched_terms;
  /// Pairs whose score was refreshed, ascending.
  std::vector<PairId> touched_pairs;
};

/// Re-converges ITER over `graph` starting from the invalidated frontier
/// `dirty_terms`, updating `term_weights` / `pair_scores` in place and
/// touching only the region reachable from the frontier. Each sweep:
/// refresh s of pairs adjacent to the frontier, recompute x of terms
/// adjacent to those pairs (full gathers — never deltas, so no error
/// accumulates), and the next frontier is the terms that moved more than
/// the frontier tolerance (1e-13). On exit every touched pair's score is
/// refreshed against the final weights, so s ≡ Σ_{t∈p} x_t holds exactly.
///
/// The fixed point is the prob ≡ 1 ITER map (the §V-C first-round
/// semantics, logistic normalization) — a concave monotone map with one
/// positive attractor, so a drained worklist lands on the same weights as a
/// batch run over the final graph regardless of ingest order. Each term
/// update solves its own one-dimensional fixed point exactly (splitting
/// out the term's self-contribution to its scores), which removes the
/// harmonic tail of the plain sweep for weakly supported terms without
/// changing the fixed-point equations. Passing a
/// frontier of *all* terms with weights initialized to any positive
/// constant therefore IS the batch build (the escape hatch fires
/// immediately). Gathers are phase-separated over sorted worklists and
/// chunked at a fixed width, so results are bit-identical at any thread
/// count. Cancellation is polled at entry and once per sweep; a tripped
/// token yields the error status with the vectors mid-converge but
/// structurally valid — re-run with a full frontier to recover.
Result<IterDirtyResult> RunIterDirty(
    const BipartiteGraph& graph, const std::vector<TermId>& dirty_terms,
    const IterDirtyOptions& options, std::vector<double>* term_weights,
    std::vector<double>* pair_scores,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_H_
