#ifndef GTER_CORE_ITER_H_
#define GTER_CORE_ITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/graph/bipartite_graph.h"
#include "gter/graph/dynamic_bipartite.h"

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
  /// Minimum terms/pairs per parallel chunk.
  size_t grain = 256;
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

/// Options for the dirty-region ITER mode (DESIGN.md §4g).
struct IterDirtyOptions {
  /// A term re-enters the frontier while its sweep-over-sweep change
  /// exceeds this. Far tighter than IterOptions::tolerance (a global L1
  /// sum): the frontier rule is per-term, and the incremental-vs-batch
  /// differential contract (≤ 1e-10 drift after many ingests) needs each
  /// converge to park every weight within a hair of the fixed point.
  double frontier_tolerance = 1e-13;
  /// Noise-floor guard for the frontier rule. A term's update gathers
  /// Σ_{p∋t} s_p before splitting out the self-contribution, so its result
  /// carries rounding noise proportional to that gathered magnitude — for a
  /// hub term with 10k adjacent pairs the noise floor sits around 1e-12,
  /// *above* the absolute tolerance, and demanding sub-rounding stability
  /// would keep such terms jittering in the frontier forever (a worklist
  /// that never drains). A term therefore re-enters the frontier only when
  /// its change exceeds max(frontier_tolerance, noise_floor · ε · Σ s_p).
  /// The extra slack is the update's own conditioning limit, far inside the
  /// 1e-10 differential contract.
  double noise_floor = 256.0;
  /// Stall detector. The worklist's partial refreshes act as time delays
  /// between coupled terms, and delayed relaxation can sustain rotation
  /// modes of near-unit gain: rounding jitter from hub terms circulates
  /// through mid-degree neighbors as a ~1e-11 limit cycle that keeps a
  /// small frontier alive to the sweep cap. The signature is a sweep whose
  /// largest |Δx| sits below `stall_delta` (numerical dust — far under any
  /// real signal, far over the stationary state's exact zeros) while the
  /// frontier persists. After `stall_sweeps` consecutive dust sweeps the
  /// run escalates (sticky) to full synchronous sweeps, which have no
  /// delays, no such modes, and reach a bitwise-stationary fixed point. A
  /// genuinely converging run crosses the dust band in a sweep or two and
  /// never trips this.
  double stall_delta = 1e-9;
  size_t stall_sweeps = 3;
  /// Hub-coupled subsystem solve. A single ingest whose terms include a
  /// hub (a term on thousands of pairs — street suffixes, shared venue
  /// words) perturbs a small strongly-coupled set: the hubs plus the
  /// mid-degree terms they share pairs with. The worklist contracts that
  /// set only ~half a decade per sweep, and every sweep re-gathers the
  /// hubs' full adjacencies — tens of thousands of pair reads to move a
  /// few dozen terms by 1e-8. When the frontier still holds a hub after
  /// `subsystem_min_sweeps` sweeps and the sweep's largest move is under
  /// `subsystem_delta` (the slow tail — real signal, just converging
  /// slowly), the run freezes the frontier's one-hop term closure (at most
  /// `subsystem_max_terms`, else it falls back to the stall path), builds
  /// the closed-form reduced system total_t = base_t + Σ_u M[t,u]·x_u
  /// (M[t,u] = pairs shared by t and u — hub↔hub coupling collapses from
  /// thousands of pair reads to one multiply), and iterates it serially to
  /// bitwise stationarity. The result is written back and re-verified by a
  /// normal exact sweep, which recruits any neighbor the reduced system
  /// missed (at most `subsystem_max_rounds` solves per run, then the stall
  /// escalation backstops). The solve is plain serial arithmetic over
  /// sorted ids — bit-identical at any thread count.
  double subsystem_delta = 1e-7;
  size_t subsystem_min_sweeps = 6;
  /// Parking rule for post-solve verification sweeps. The reduced solve is
  /// bitwise stationary in *its own* summation order; the exact gather sums
  /// the same mass in a different order, so verification still sees hubs
  /// move by their rounding floor (~ε · Σ s_p ≈ 1e-11 at 10k pairs) — dust
  /// that sits right at the frontier rule's noise guard and can ping-pong
  /// closure subsets indefinitely. After at least one solve, a verification
  /// sweep whose largest move is below this parks the run: the distance to
  /// the exact fixed point is conditioning-limited rounding, well inside
  /// the 1e-10 differential contract.
  double subsystem_park_delta = 1e-10;
  size_t subsystem_hub_degree = 1024;
  size_t subsystem_max_terms = 1024;
  size_t subsystem_max_rounds = 3;
  /// Parking rule for the post-stall full mode. The full map contracts
  /// geometrically toward bitwise stationarity, but grinding out the last
  /// decades of dust costs a dozen extra sweeps for nothing: once a full
  /// sweep's largest move falls below this, the run parks and reports
  /// converged — the remaining distance to the fixed point is this times a
  /// contraction-ratio factor, far inside the 1e-10 differential contract.
  /// Applies only after a stall escalation; escape-hatch full runs (every
  /// batch build) still run to exact stationarity.
  double stall_park_delta = 1e-12;
  /// Hard sweep cap; the worklist normally drains long before this.
  size_t max_sweeps = 1000;
  /// Escape hatch: when the frontier covers more than this fraction of all
  /// terms, the run degrades to full sweeps (same arithmetic, no worklist
  /// bookkeeping) — at that size the global sweep is cheaper than tracking.
  /// Once tripped it stays full for the rest of the run.
  double full_resweep_threshold = 0.25;
  /// Minimum elements per parallel chunk.
  size_t grain = 256;
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
/// `frontier_tolerance`. On exit every touched pair's score is refreshed
/// against the final weights, so s ≡ Σ_{t∈p} x_t holds exactly.
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
    const DynamicBipartiteGraph& graph, const std::vector<TermId>& dirty_terms,
    const IterDirtyOptions& options, std::vector<double>* term_weights,
    std::vector<double>* pair_scores,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_H_
