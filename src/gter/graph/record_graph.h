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
///
/// The structure is a function of the pair space alone, so it is built
/// once: the CSR adjacency (rows sorted by neighbour id), the CSR positions
/// of both directions of every pair, bipartiteness and density. Between
/// fusion rounds only the weights change (SetWeights).
class RecordGraph {
 public:
  /// CSR positions, in AdjacencyMatrix()'s value order, of the two directed
  /// edges of pair {a, b}: `ab` is entry (a, b), `ba` is entry (b, a).
  struct EdgePositions {
    uint32_t ab = 0;
    uint32_t ba = 0;
  };

  /// Builds G_r from the candidate pairs and their similarity scores
  /// (indexed by PairId) in O(n + m): two stable counting sorts, the first
  /// bucketing the pairs by endpoint and the second dealing each bucket
  /// into its neighbours' rows in ascending column order. Every pair's
  /// records must be below `num_records`, and there may be at most
  /// 2^31 − 1 pairs (EdgePositions is 32-bit). Pairs with non-positive
  /// similarity keep their edge with weight 0 — they stay structurally
  /// present so the matching probability is defined for every candidate
  /// pair.
  static RecordGraph Build(size_t num_records, const PairSpace& pairs,
                           const std::vector<double>& similarity);

  /// Rewrites every edge weight from `similarity` (indexed by PairId, the
  /// pair space the graph was built from), with Build's clamp at 0. The
  /// structure and everything derived from it stay as they are.
  void SetWeights(const std::vector<double>& similarity);

  size_t num_nodes() const { return adjacency_.rows(); }
  size_t num_edges() const { return adjacency_.nnz() / 2; }

  /// Fraction of possible undirected edges present.
  double Density() const { return density_; }

  /// True when the graph has no odd cycle (a BFS 2-colouring run by Build).
  /// Two-source pair spaces keep only cross-source pairs, so their record
  /// graphs always are; CliqueRank then stops after one step (DESIGN.md
  /// §4).
  bool IsBipartite() const { return bipartite_; }

  /// Neighbor record ids of node r, ascending.
  std::span<const RecordId> Neighbors(RecordId r) const {
    return adjacency_.RowCols(r);
  }

  /// Edge weights parallel to Neighbors(r).
  std::span<const double> Weights(RecordId r) const {
    return adjacency_.RowValues(r);
  }

  /// PairId of the edge from r to its k-th neighbor (parallel to
  /// Neighbors(r)); lets walkers map edges back to candidate pairs.
  std::span<const PairId> EdgePairIds(RecordId r) const {
    return {edge_pairs_.data() + adjacency_.RowStart(r),
            adjacency_.RowCols(r).size()};
  }

  /// Where pair `p`'s two directed edges sit in the CSR value order.
  EdgePositions PositionsOf(PairId p) const { return positions_[p]; }

  /// True when records a and b are adjacent.
  bool HasEdge(RecordId a, RecordId b) const;

  /// The symmetric weighted adjacency as CSR (diagonal excluded), stored
  /// by Build: its structure is the edge pattern M_n, its values the edge
  /// weights. The masked products read only the structure, and CliqueRank
  /// keeps M_t, M_b and its iterates in value arrays on this layout.
  const CsrMatrix& AdjacencyMatrix() const { return adjacency_; }

 private:
  CsrMatrix adjacency_;
  // PairId of each CSR position.
  std::vector<PairId> edge_pairs_;
  // By PairId.
  std::vector<EdgePositions> positions_;
  double density_ = 0.0;
  bool bipartite_ = true;
};

}  // namespace gter

#endif  // GTER_GRAPH_RECORD_GRAPH_H_
