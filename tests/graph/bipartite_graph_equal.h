#ifndef GTER_TESTS_GRAPH_BIPARTITE_GRAPH_EQUAL_H_
#define GTER_TESTS_GRAPH_BIPARTITE_GRAPH_EQUAL_H_

// Id-for-id equality of two bipartite graphs: N_t and P_t, each pair's set,
// each set's terms and pairs, and each term's sets.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "gter/graph/bipartite_graph.h"

namespace gter {

/// The pairs of set `k`, in the graph's (ascending) order.
inline std::vector<PairId> PairsOfSet(const BipartiteGraph& graph, SetId k) {
  std::vector<PairId> pairs;
  graph.ForEachPairOfSet(k, [&](PairId p) { pairs.push_back(p); });
  return pairs;
}

inline void ExpectSameGraph(const BipartiteGraph& want,
                            const BipartiteGraph& got) {
  ASSERT_EQ(got.num_terms(), want.num_terms());
  ASSERT_EQ(got.num_pairs(), want.num_pairs());
  ASSERT_EQ(got.num_sets(), want.num_sets());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.num_incidences(), want.num_incidences());
  for (TermId t = 0; t < want.num_terms(); ++t) {
    ASSERT_EQ(got.Nt(t), want.Nt(t)) << "term " << t;
    ASSERT_EQ(got.Pt(t), want.Pt(t)) << "term " << t;
    ASSERT_TRUE(std::ranges::equal(got.SetsOfTerm(t), want.SetsOfTerm(t)))
        << "term " << t;
  }
  for (PairId p = 0; p < want.num_pairs(); ++p) {
    ASSERT_EQ(got.SetOf(p), want.SetOf(p)) << "pair " << p;
  }
  for (SetId k = 0; k < want.num_sets(); ++k) {
    ASSERT_TRUE(std::ranges::equal(got.TermsOfSet(k), want.TermsOfSet(k)))
        << "set " << k;
    ASSERT_EQ(got.SetSize(k), want.SetSize(k)) << "set " << k;
    ASSERT_EQ(PairsOfSet(got, k), PairsOfSet(want, k)) << "set " << k;
  }
}

}  // namespace gter

#endif  // GTER_TESTS_GRAPH_BIPARTITE_GRAPH_EQUAL_H_
