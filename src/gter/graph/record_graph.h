#ifndef GTER_GRAPH_RECORD_GRAPH_H_
#define GTER_GRAPH_RECORD_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gter/er/pair_space.h"
#include "gter/matrix/csr_matrix.h"

namespace gter {

/// The weighted record graph G_r of §VI-A: one node per record; an
/// undirected edge per candidate pair, weighted by the pair similarity
/// s(r_i, r_j) learned by ITER. CliqueRank and RSS walk this graph.
class RecordGraph {
 public:
  /// Builds G_r from the candidate pairs and their similarity scores
  /// (indexed by PairId). Pairs with non-positive similarity keep their
  /// edge with weight 0 — they stay structurally present so the matching
  /// probability is defined for every candidate pair.
  static RecordGraph Build(size_t num_records, const PairSpace& pairs,
                           const std::vector<double>& similarity);

  size_t num_nodes() const { return offsets_.size() - 1; }
  size_t num_edges() const { return adjacency_.size() / 2; }

  /// Fraction of possible undirected edges present.
  double Density() const;

  /// True when the graph has no odd cycle (a BFS 2-colouring, O(n + m)).
  /// Two-source pair spaces keep only cross-source pairs, so their record
  /// graphs always are; CliqueRank then stops after one step (DESIGN.md
  /// §4).
  bool IsBipartite() const;

  /// Neighbor record ids of node r.
  std::span<const RecordId> Neighbors(RecordId r) const {
    return {adjacency_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// Edge weights parallel to Neighbors(r).
  std::span<const double> Weights(RecordId r) const {
    return {weights_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// PairId of the edge from r to its k-th neighbor (parallel to
  /// Neighbors(r)); lets walkers map edges back to candidate pairs.
  std::span<const PairId> EdgePairIds(RecordId r) const {
    return {edge_pairs_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// Similarity of edge {a, b}, or 0 when absent.
  double EdgeWeight(RecordId a, RecordId b) const;

  /// True when records a and b are adjacent.
  bool HasEdge(RecordId a, RecordId b) const;

  /// The symmetric 0/1 adjacency matrix M_n as CSR (diagonal excluded).
  /// CliqueRank's TransitionAndBoost derives M_t on the same layout.
  CsrMatrix AdjacencyMatrix() const;

 private:
  std::vector<size_t> offsets_;
  std::vector<RecordId> adjacency_;
  std::vector<double> weights_;
  std::vector<PairId> edge_pairs_;
};

}  // namespace gter

#endif  // GTER_GRAPH_RECORD_GRAPH_H_
