#ifndef GTER_CORE_CORRELATION_CLUSTERING_H_
#define GTER_CORE_CORRELATION_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/pair_space.h"

namespace gter {

/// Correlation clustering over the matching probabilities — the clustering
/// machinery ACD [12] uses, offered here as a principled alternative to
/// plain transitive closure.
///
/// Transitive closure propagates every accepted edge unconditionally: one
/// false positive merges two whole clusters. Correlation clustering instead
/// assigns each record to the cluster that most of its probability mass
/// agrees with, so an isolated wrong edge is outvoted by the many
/// within-cluster edges around it.
///
/// Implementation: randomized pivoting (KwikCluster, Ailon et al.) with
/// probability-weighted assignment, followed by local-move refinement that
/// greedily relocates records while the correlation objective improves.
struct CorrelationClusteringOptions {
  /// A pair "agrees" with being together when p ≥ this; below, the pair
  /// votes to be apart. Matches the fusion η by default.
  double together_threshold = 0.98;
  /// Pivot passes with different random orders; the best objective wins.
  size_t restarts = 3;
  /// Local-move refinement sweeps after pivoting.
  size_t refine_sweeps = 2;
  uint64_t seed = 29;
};

struct CorrelationClusteringResult {
  /// Dense cluster label per record.
  std::vector<uint32_t> cluster_of;
  /// The correlation objective: Σ_within (2·[p≥θ]−1) − Σ_cross (2·[p≥θ]−1)
  /// over candidate pairs (higher is better).
  double objective = 0.0;
};

/// Clusters `num_records` records given per-candidate-pair probabilities.
/// Pairs absent from `pairs` are treated as "apart" votes of weight 0 —
/// they never pull records together but do not penalize separation.
/// Metrics go to `ctx.metrics` and one `cluster/restart` span per restart
/// to `ctx.trace`; cancellation is polled at entry and once per restart.
Result<CorrelationClusteringResult> CorrelationCluster(
    size_t num_records, const PairSpace& pairs,
    const std::vector<double>& pair_probability,
    const CorrelationClusteringOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_CORRELATION_CLUSTERING_H_
