#include "gter/graph/record_graph.h"

#include <algorithm>
#include <utility>

#include "gter/common/status.h"

namespace gter {
namespace {

// BFS 2-colouring, O(n + m). 0 = not reached yet; 1 and 2 are the two
// sides. One queue serves every component: each node is pushed once, so
// `head` only moves forward.
bool TwoColourable(const CsrMatrix& adjacency) {
  const size_t n = adjacency.rows();
  std::vector<uint8_t> side(n, 0);
  std::vector<RecordId> queue;
  queue.reserve(n);
  size_t head = 0;
  for (RecordId root = 0; root < n; ++root) {
    if (side[root] != 0) continue;
    side[root] = 1;
    queue.push_back(root);
    for (; head < queue.size(); ++head) {
      const RecordId r = queue[head];
      for (RecordId nb : adjacency.RowCols(r)) {
        if (side[nb] == side[r]) return false;
        if (side[nb] == 0) {
          side[nb] = static_cast<uint8_t>(3 - side[r]);
          queue.push_back(nb);
        }
      }
    }
  }
  return true;
}

}  // namespace

RecordGraph RecordGraph::Build(size_t num_records, const PairSpace& pairs,
                               const std::vector<double>& similarity) {
  GTER_CHECK(similarity.size() == pairs.size());
  std::vector<size_t> row_ptr(num_records + 1, 0);
  for (const RecordPair& rp : pairs.pairs()) {
    GTER_CHECK(rp.a < num_records && rp.b < num_records && rp.a != rp.b);
    ++row_ptr[rp.a + 1];
    ++row_ptr[rp.b + 1];
  }
  for (size_t r = 0; r < num_records; ++r) row_ptr[r + 1] += row_ptr[r];
  const size_t nnz = row_ptr[num_records];
  GTER_CHECK(nnz <= UINT32_MAX);  // EdgePositions holds 32-bit positions

  // Sort 1: each record's incident pairs, in PairId order. The graph is
  // symmetric, so bucket c also lists the entries of column c.
  std::vector<PairId> incident(nnz);
  std::vector<size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (PairId p = 0; p < pairs.size(); ++p) {
    const RecordPair& rp = pairs.pair(p);
    incident[cursor[rp.a]++] = p;
    incident[cursor[rp.b]++] = p;
  }

  // Sort 2: the columns in ascending order, each entry (r, c) dealt to the
  // next free slot of row r, so every row ends sorted by neighbour id.
  RecordGraph g;
  std::vector<uint32_t> col_idx(nnz);
  g.edge_pairs_.resize(nnz);
  g.positions_.resize(pairs.size());
  std::copy(row_ptr.begin(), row_ptr.end() - 1, cursor.begin());
  for (RecordId c = 0; c < num_records; ++c) {
    for (size_t k = row_ptr[c]; k < row_ptr[c + 1]; ++k) {
      const PairId p = incident[k];
      const RecordPair& rp = pairs.pair(p);
      const RecordId r = rp.a == c ? rp.b : rp.a;
      const size_t pos = cursor[r]++;
      col_idx[pos] = c;
      g.edge_pairs_[pos] = p;
      (r == rp.a ? g.positions_[p].ab : g.positions_[p].ba) =
          static_cast<uint32_t>(pos);
    }
  }
  g.adjacency_ =
      CsrMatrix::FromCsr(num_records, num_records, std::move(row_ptr),
                         std::move(col_idx), std::vector<double>(nnz));
  g.SetWeights(similarity);
  g.bipartite_ = TwoColourable(g.adjacency_);
  if (num_records >= 2) {
    const double possible =
        static_cast<double>(num_records) * (num_records - 1) / 2.0;
    g.density_ = static_cast<double>(g.num_edges()) / possible;
  }
  return g;
}

void RecordGraph::SetWeights(const std::vector<double>& similarity) {
  GTER_CHECK(similarity.size() == positions_.size());
  std::span<double> weights = adjacency_.mutable_values();
  for (size_t e = 0; e < edge_pairs_.size(); ++e) {
    weights[e] = std::max(similarity[edge_pairs_[e]], 0.0);
  }
}

bool RecordGraph::HasEdge(RecordId a, RecordId b) const {
  auto neigh = Neighbors(a);
  return std::binary_search(neigh.begin(), neigh.end(), b);
}

}  // namespace gter
