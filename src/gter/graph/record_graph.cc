#include "gter/graph/record_graph.h"

#include <algorithm>

#include "gter/common/status.h"

namespace gter {

RecordGraph RecordGraph::Build(size_t num_records, const PairSpace& pairs,
                               const std::vector<double>& similarity) {
  GTER_CHECK(similarity.size() == pairs.size());
  RecordGraph g;
  std::vector<size_t> degree(num_records, 0);
  for (const RecordPair& rp : pairs.pairs()) {
    ++degree[rp.a];
    ++degree[rp.b];
  }
  g.offsets_.assign(num_records + 1, 0);
  for (size_t r = 0; r < num_records; ++r) {
    g.offsets_[r + 1] = g.offsets_[r] + degree[r];
  }
  size_t total = g.offsets_[num_records];
  g.adjacency_.resize(total);
  g.weights_.resize(total);
  g.edge_pairs_.resize(total);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (PairId p = 0; p < pairs.size(); ++p) {
    const RecordPair& rp = pairs.pair(p);
    double w = std::max(similarity[p], 0.0);
    g.adjacency_[cursor[rp.a]] = rp.b;
    g.weights_[cursor[rp.a]] = w;
    g.edge_pairs_[cursor[rp.a]] = p;
    ++cursor[rp.a];
    g.adjacency_[cursor[rp.b]] = rp.a;
    g.weights_[cursor[rp.b]] = w;
    g.edge_pairs_[cursor[rp.b]] = p;
    ++cursor[rp.b];
  }
  // Sort each adjacency row by neighbor id (keeps CSR exports canonical).
  for (size_t r = 0; r < num_records; ++r) {
    size_t lo = g.offsets_[r], hi = g.offsets_[r + 1];
    std::vector<size_t> order(hi - lo);
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return g.adjacency_[lo + x] < g.adjacency_[lo + y];
    });
    std::vector<RecordId> adj(hi - lo);
    std::vector<double> wts(hi - lo);
    std::vector<PairId> eps(hi - lo);
    for (size_t k = 0; k < order.size(); ++k) {
      adj[k] = g.adjacency_[lo + order[k]];
      wts[k] = g.weights_[lo + order[k]];
      eps[k] = g.edge_pairs_[lo + order[k]];
    }
    std::copy(adj.begin(), adj.end(), g.adjacency_.begin() + lo);
    std::copy(wts.begin(), wts.end(), g.weights_.begin() + lo);
    std::copy(eps.begin(), eps.end(), g.edge_pairs_.begin() + lo);
  }
  return g;
}

double RecordGraph::Density() const {
  size_t n = num_nodes();
  if (n < 2) return 0.0;
  double possible = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(num_edges()) / possible;
}

bool RecordGraph::IsBipartite() const {
  // 0 = not reached yet; 1 and 2 are the two sides. One queue serves every
  // component: each node is pushed once, so `head` only moves forward.
  std::vector<uint8_t> side(num_nodes(), 0);
  std::vector<RecordId> queue;
  queue.reserve(num_nodes());
  size_t head = 0;
  for (RecordId root = 0; root < num_nodes(); ++root) {
    if (side[root] != 0) continue;
    side[root] = 1;
    queue.push_back(root);
    for (; head < queue.size(); ++head) {
      const RecordId r = queue[head];
      for (RecordId nb : Neighbors(r)) {
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

double RecordGraph::EdgeWeight(RecordId a, RecordId b) const {
  auto neigh = Neighbors(a);
  auto it = std::lower_bound(neigh.begin(), neigh.end(), b);
  if (it == neigh.end() || *it != b) return 0.0;
  return Weights(a)[static_cast<size_t>(it - neigh.begin())];
}

bool RecordGraph::HasEdge(RecordId a, RecordId b) const {
  auto neigh = Neighbors(a);
  return std::binary_search(neigh.begin(), neigh.end(), b);
}

CsrMatrix RecordGraph::AdjacencyMatrix() const {
  std::vector<CsrMatrix::Triplet> triplets;
  triplets.reserve(adjacency_.size());
  for (RecordId r = 0; r < num_nodes(); ++r) {
    for (RecordId nb : Neighbors(r)) {
      triplets.push_back({r, nb, 1.0});
    }
  }
  return CsrMatrix::FromTriplets(num_nodes(), num_nodes(),
                                 std::move(triplets));
}

}  // namespace gter
