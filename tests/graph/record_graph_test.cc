#include "gter/graph/record_graph.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "gter/core/cliquerank.h"

namespace gter {
namespace {

// M_t of Eq. 11/13 over `g` — built by CliqueRank's setup pass, the one
// place the transition matrix is derived from the record graph.
CsrMatrix Transition(const RecordGraph& g, double alpha) {
  CliqueRankOptions options;
  options.alpha = alpha;
  return TransitionAndBoost(g, options).transition;
}

// Triangle of three records all sharing one term, with distinct weights.
struct Fixture {
  Dataset ds{"test"};
  PairSpace pairs;
  std::vector<double> sims;
  Fixture() {
    ds.AddRecord(0, "t");
    ds.AddRecord(0, "t");
    ds.AddRecord(0, "t");
    pairs = PairSpace::Build(ds);
    sims.assign(pairs.size(), 0.0);
    sims[pairs.Find(0, 1)] = 0.9;
    sims[pairs.Find(0, 2)] = 0.3;
    sims[pairs.Find(1, 2)] = 0.6;
  }
};

TEST(RecordGraphTest, StructureAndWeights) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.9);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.9);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.3);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 0.6);
}

TEST(RecordGraphTest, NeighborsSortedWithParallelArrays) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  auto neigh = g.Neighbors(0);
  ASSERT_EQ(neigh.size(), 2u);
  EXPECT_EQ(neigh[0], 1u);
  EXPECT_EQ(neigh[1], 2u);
  auto wts = g.Weights(0);
  EXPECT_DOUBLE_EQ(wts[0], 0.9);
  EXPECT_DOUBLE_EQ(wts[1], 0.3);
  auto eps = g.EdgePairIds(0);
  EXPECT_EQ(eps[0], f.pairs.Find(0, 1));
  EXPECT_EQ(eps[1], f.pairs.Find(0, 2));
}

TEST(RecordGraphTest, HasEdgeAndDensity) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);  // complete triangle
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 0), 0.0);
}

TEST(RecordGraphTest, IsolatedNode) {
  Dataset ds("test");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "alone");
  PairSpace pairs = PairSpace::Build(ds);
  RecordGraph g = RecordGraph::Build(ds.size(), pairs, {0.5});
  EXPECT_TRUE(g.Neighbors(2).empty());
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(RecordGraphTest, NegativeSimilaritiesClampToZero) {
  Fixture f;
  f.sims[0] = -2.0;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  const RecordPair& rp = f.pairs.pair(0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(rp.a, rp.b), 0.0);
}

TEST(RecordGraphTest, AdjacencyMatrixIsSymmetricBinary) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  CsrMatrix adj = g.AdjacencyMatrix();
  EXPECT_EQ(adj.nnz(), 6u);  // 3 undirected edges, both directions
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(adj.At(i, j), i == j ? 0.0 : 1.0);
      EXPECT_DOUBLE_EQ(adj.At(i, j), adj.At(j, i));
    }
  }
}

TEST(RecordGraphTest, TransitionMatrixRowsAreStochastic) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  for (double alpha : {1.0, 5.0, 20.0}) {
    CsrMatrix mt = Transition(g, alpha);
    for (size_t r = 0; r < 3; ++r) {
      double sum = 0.0;
      for (double v : mt.RowValues(r)) sum += v;
      EXPECT_NEAR(sum, 1.0, 1e-12) << "alpha=" << alpha;
    }
  }
}

TEST(RecordGraphTest, LargerAlphaSharpensTransitions) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  // From node 0: neighbor 1 has weight 0.9, neighbor 2 has 0.3.
  CsrMatrix soft = Transition(g, 1.0);
  CsrMatrix sharp = Transition(g, 20.0);
  EXPECT_GT(sharp.At(0, 1), soft.At(0, 1));
  EXPECT_LT(sharp.At(0, 2), soft.At(0, 2));
  EXPECT_GT(sharp.At(0, 1), 0.999);  // (0.3/0.9)^20 ≈ 3e-10
}

TEST(RecordGraphTest, ZeroWeightRowFallsBackToUniform) {
  Dataset ds("test");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  PairSpace pairs = PairSpace::Build(ds);
  std::vector<double> zeros(pairs.size(), 0.0);
  RecordGraph g = RecordGraph::Build(ds.size(), pairs, zeros);
  CsrMatrix mt = Transition(g, 20.0);
  EXPECT_NEAR(mt.At(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(mt.At(0, 2), 0.5, 1e-12);
}

TEST(RecordGraphTest, HugeWeightsDoNotOverflowAtHighAlpha) {
  Fixture f;
  f.sims = {500.0, 400.0, 450.0};  // s^α would overflow without row-max trick
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  CsrMatrix mt = Transition(g, 100.0);
  for (size_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (double v : mt.RowValues(r)) {
      EXPECT_TRUE(std::isfinite(v));
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// A record graph over n records with the given undirected edges (unit
// weights); only the structure matters to IsBipartite.
RecordGraph GraphOf(size_t n, std::vector<RecordPair> edges) {
  PairSpace pairs = PairSpace::FromPairs(std::move(edges));
  return RecordGraph::Build(n, pairs, std::vector<double>(pairs.size(), 1.0));
}

TEST(RecordGraphTest, IsBipartiteOnEvenCycleForestAndIsolatedNodes) {
  EXPECT_TRUE(GraphOf(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
                  .IsBipartite());
  // Two trees, one of them a star.
  EXPECT_TRUE(GraphOf(8, {{0, 1}, {0, 2}, {0, 3}, {4, 5}, {5, 6}, {5, 7}})
                  .IsBipartite());
  EXPECT_TRUE(GraphOf(4, {}).IsBipartite());
  EXPECT_TRUE(GraphOf(5, {{1, 3}}).IsBipartite());
}

TEST(RecordGraphTest, IsBipartiteFalseOnOddCycle) {
  EXPECT_FALSE(GraphOf(3, {{0, 1}, {1, 2}, {0, 2}}).IsBipartite());
  EXPECT_FALSE(
      GraphOf(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}).IsBipartite());
}

TEST(RecordGraphTest, IsBipartiteFalseWhenOneComponentHasAnOddCycle) {
  // A 4-cycle, a path and, last in BFS order, a 5-cycle; 12 and 13 alone.
  EXPECT_FALSE(GraphOf(14, {{0, 1}, {1, 2}, {2, 3}, {0, 3},
                            {4, 5}, {5, 6},
                            {7, 8}, {8, 9}, {9, 10}, {10, 11}, {7, 11}})
                   .IsBipartite());
}

TEST(RecordGraphTest, TwoSourcePairSpaceIsBipartite) {
  // Every record shares "x", so a one-source space is a clique; two sources
  // keep only the cross-source pairs — a complete bipartite graph.
  for (uint32_t sources : {1u, 2u}) {
    Dataset ds("test", sources);
    for (int i = 0; i < 6; ++i) ds.AddRecord(i % sources, "x");
    PairSpace pairs = PairSpace::Build(ds);
    RecordGraph g = RecordGraph::Build(
        ds.size(), pairs, std::vector<double>(pairs.size(), 0.5));
    EXPECT_EQ(g.num_edges(), sources == 1 ? 15u : 9u);
    EXPECT_EQ(g.IsBipartite(), sources == 2) << sources << " sources";
  }
}

}  // namespace
}  // namespace gter
