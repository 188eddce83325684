#ifndef GTER_CORE_CLUSTERER_H_
#define GTER_CORE_CLUSTERER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/pair_space.h"

namespace gter {

/// The clustering-endgame problem: the similarity graph the fusion loop
/// leaves behind. Every field is borrowed — the caller keeps the pair
/// space and probability vector alive for the duration of Cluster().
struct ClusterProblem {
  /// Records 0..num_records-1 partition into entities.
  size_t num_records = 0;
  /// Candidate pairs (the graph's edges).
  const PairSpace* pairs = nullptr;
  /// Edge weight per PairId — the fusion loop's matching probability
  /// p(r_i, r_j) in [0, 1]. Pairs absent from `pairs` have weight 0.
  const std::vector<double>* pair_probability = nullptr;
  /// Match threshold η: edges with p ≥ η are "same entity" votes. The
  /// correlation, connected-components, and unique-mapping endgames key off
  /// it; the hierarchical endgame uses its own merge threshold instead.
  double eta = 0.98;
  /// Source per record, or nullptr/empty for single-source data. When
  /// present, the unique-mapping endgame ignores same-source edges and
  /// upholds the bipartite contract: no entity holds two records from one
  /// source.
  const std::vector<uint32_t>* source_of = nullptr;
};

/// An entity partition: one dense cluster label per record, labels ordered
/// by smallest member (record 0's cluster is always label 0).
struct Clustering {
  std::vector<uint32_t> cluster_of;
  size_t num_clusters = 0;
};

/// The registered endgames.
///
/// kConnectedComponents — transitive closure of p ≥ η edges (one false
///   positive chains whole clusters together).
/// kCorrelation — randomized-pivot correlation clustering with local-move
///   refinement (CorrelationCluster at default options, its
///   together-threshold at the problem's η).
/// kUniqueMapping — clean-clean bipartite matching (Papadakis et al.,
///   arxiv 2112.14030): greedy globally by weight, accepting a
///   cross-source p ≥ η edge when both endpoints are still free. Each
///   record ends up with at most one partner, so entities have at most two
///   records.
/// kHierarchical — graph-based hierarchical record clustering (Ebeid &
///   Talburt, arxiv 2112.06331): average-linkage agglomeration over the
///   similarity graph until the best inter-cluster link drops below the
///   merge threshold.
enum class ClustererKind {
  kConnectedComponents,
  kCorrelation,
  kUniqueMapping,
  kHierarchical,
};

/// Tuning knobs of Cluster(). Kinds that have no knob ignore them.
struct ClustererOptions {
  /// Hierarchical endgame: clusters merge while the average inter-cluster
  /// edge weight (absent edges count 0) is ≥ this.
  double merge_threshold = 0.5;
};

/// Stable registry name of a kind ("connected_components", ...).
const char* ClustererKindName(ClustererKind kind);

/// Parses a registry name; unknown names are InvalidArgument listing the
/// valid values (the message gterd sends over the wire).
Result<ClustererKind> ParseClustererKind(const std::string& name);

/// Every registered kind, in a stable order — the iteration surface for
/// the property suite and the eval harness.
const std::vector<ClustererKind>& AllClustererKinds();

/// The final entity-formation step (DESIGN.md §4f): runs endgame `kind`
/// on `problem`, similarity graph in, entity partition out.
///
/// Contract every kind upholds:
///  * Partition validity — every record gets exactly one label, labels are
///    dense in [0, num_clusters), no cluster is empty.
///  * Determinism — identical problems yield identical partitions, at any
///    thread count, before and after a cancelled attempt (ties break on
///    record/pair ids; the correlation endgame's pivots are seeded).
///  * Cancellation — `ctx.cancel` is polled at entry and at every
///    restart/merge/edge-batch boundary; a tripped token unwinds with
///    Cancelled/DeadlineExceeded and leaves no residue.
///  * Bipartite invariant — the unique-mapping endgame never places two
///    records of the same source in one entity (when `source_of` is given).
///
/// It counts `cluster/endgame_runs` but leaves the `cluster/clusters`
/// gauge to whoever serves the partition.
Result<Clustering> Cluster(ClustererKind kind, const ClusterProblem& problem,
                           const ClustererOptions& options = {},
                           const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_CLUSTERER_H_
