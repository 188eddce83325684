#ifndef GTER_CORE_RSS_H_
#define GTER_CORE_RSS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/pair_space.h"
#include "gter/graph/record_graph.h"

namespace gter {

/// Options for the Random-Surfer Sampling method (Algorithms 2–3).
struct RssOptions {
  /// Exponent α of the non-linear transition probability (Eq. 11).
  double alpha = 20.0;
  /// Maximum steps S per walk.
  size_t max_steps = 20;
  /// Walks per edge M (half start from each endpoint).
  size_t num_walks = 100;
  /// Per-step random bonus (1+b)^α on the edge toward the target
  /// (Eq. 12) — the big-clique fix.
  bool use_boost = true;
  /// Return 0 as soon as the surfer leaves the target's neighborhood
  /// (Algorithm 3, lines 8–9).
  bool early_stop = true;
  uint64_t seed = 7;
  /// Minimum pairs per parallel chunk.
  size_t grain = 32;
};

/// Runs RSS over the record graph: estimates the matching probability of
/// every candidate pair as the fraction of rectified random walks that
/// reach the other endpoint within S steps. Indexed by PairId; pairs whose
/// edge has zero weight still get their walks (via uniform fallback rows).
/// Complexity O(M·S·Σdeg) per edge set — the paper's motivation for
/// CliqueRank.
///
/// The pair loop is parallelized over `ctx.pool`; each pair draws from its
/// own forked RNG stream, so results are bit-identical for any thread
/// count. Metrics (walks run, early stops, target hits, steps-per-walk
/// histogram) go to `ctx.metrics`. Cancellation is polled at entry and
/// before every pair's walk batch (each batch is num_walks × max_steps of
/// work).
Result<std::vector<double>> RunRss(
    const RecordGraph& graph, const PairSpace& pairs,
    const RssOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_RSS_H_
