#include "gter/graph/record_graph.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/core/cliquerank.h"

namespace gter {
namespace {

// M_t of Eq. 11/13 over `g` — built by CliqueRank's setup pass, the one
// place the transition matrix is derived from the record graph — as a
// matrix on the graph's edge pattern.
CsrMatrix Transition(const RecordGraph& g, double alpha) {
  CliqueRankOptions options;
  options.alpha = alpha;
  CsrMatrix mt = g.AdjacencyMatrix();
  const std::vector<double> values = TransitionAndBoost(g, options).transition;
  std::copy(values.begin(), values.end(), mt.mutable_values().begin());
  return mt;
}

// Similarity of edge {a, b} as the graph stores it, or 0 when absent.
double WeightOf(const RecordGraph& g, RecordId a, RecordId b) {
  auto neigh = g.Neighbors(a);
  auto it = std::lower_bound(neigh.begin(), neigh.end(), b);
  if (it == neigh.end() || *it != b) return 0.0;
  return g.Weights(a)[static_cast<size_t>(it - neigh.begin())];
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
  EXPECT_DOUBLE_EQ(WeightOf(g, 0, 1), 0.9);
  EXPECT_DOUBLE_EQ(WeightOf(g, 1, 0), 0.9);
  EXPECT_DOUBLE_EQ(WeightOf(g, 0, 2), 0.3);
  EXPECT_DOUBLE_EQ(WeightOf(g, 1, 2), 0.6);
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
  EXPECT_FALSE(g.HasEdge(0, 0));
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
  EXPECT_DOUBLE_EQ(WeightOf(g, rp.a, rp.b), 0.0);
}

TEST(RecordGraphTest, AdjacencyMatrixIsSymmetricAndCarriesWeights) {
  Fixture f;
  RecordGraph g = RecordGraph::Build(f.ds.size(), f.pairs, f.sims);
  const CsrMatrix& adj = g.AdjacencyMatrix();
  EXPECT_EQ(adj.nnz(), 6u);  // 3 undirected edges, both directions
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(adj.PositionOf(i, i), -1);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(adj.At(i, j), WeightOf(g, i, j));
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

// A random pair space over n records, its PairIds in random order (Append
// keeps insertion order), with every record past 3n/4 left isolated.
PairSpace RandomPairSpace(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<RecordPair> edges;
  const size_t linked = n - n / 4;
  for (RecordId a = 0; a < linked; ++a) {
    for (RecordId b = a + 1; b < linked; ++b) {
      if (rng.UniformDouble() < density) edges.push_back({b, a});
    }
  }
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  PairSpace pairs;
  for (const RecordPair& rp : edges) pairs.Append(rp.a, rp.b);
  return pairs;
}

std::vector<double> RandomSimilarities(size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sims(m);
  for (double& s : sims) s = rng.UniformDouble() * 2.0 - 0.5;  // some < 0
  return sims;
}

// (records, density, seed): the empty graph, single records, and graphs
// from sparse to complete.
class RecordGraphRandom
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

// The build against a per-row sort of both directions of every pair: the
// same rows, neighbours, weights, PairIds and 0/1 pattern.
TEST_P(RecordGraphRandom, BuildMatchesSortReference) {
  auto [n, density, seed] = GetParam();
  const PairSpace pairs = RandomPairSpace(n, density, seed);
  const std::vector<double> sims = RandomSimilarities(pairs.size(), seed + 1);
  const RecordGraph g = RecordGraph::Build(n, pairs, sims);

  struct Entry {
    RecordId nb;
    PairId p;
  };
  std::vector<std::vector<Entry>> rows(n);
  for (PairId p = 0; p < pairs.size(); ++p) {
    rows[pairs.pair(p).a].push_back({pairs.pair(p).b, p});
    rows[pairs.pair(p).b].push_back({pairs.pair(p).a, p});
  }
  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(g.num_edges(), pairs.size());
  const CsrMatrix& adj = g.AdjacencyMatrix();
  ASSERT_EQ(adj.rows(), n);
  ASSERT_EQ(adj.cols(), n);
  ASSERT_EQ(adj.nnz(), 2 * pairs.size());
  size_t start = 0;
  for (RecordId r = 0; r < n; ++r) {
    std::sort(rows[r].begin(), rows[r].end(),
              [](const Entry& x, const Entry& y) { return x.nb < y.nb; });
    ASSERT_EQ(adj.RowStart(r), start) << "row " << r;
    start += rows[r].size();
    ASSERT_EQ(g.Neighbors(r).size(), rows[r].size()) << "row " << r;
    for (size_t k = 0; k < rows[r].size(); ++k) {
      EXPECT_EQ(g.Neighbors(r)[k], rows[r][k].nb);
      EXPECT_EQ(g.EdgePairIds(r)[k], rows[r][k].p);
      EXPECT_EQ(g.Weights(r)[k], std::max(sims[rows[r][k].p], 0.0));
      EXPECT_EQ(adj.RowValues(r)[k], g.Weights(r)[k]);
    }
  }
}

TEST_P(RecordGraphRandom, PositionsPointAtBothDirectionsOfEveryPair) {
  auto [n, density, seed] = GetParam();
  const PairSpace pairs = RandomPairSpace(n, density, seed);
  const RecordGraph g = RecordGraph::Build(
      n, pairs, RandomSimilarities(pairs.size(), seed + 1));
  const CsrMatrix& adj = g.AdjacencyMatrix();
  // Position `pos` must hold entry (row, col) and belong to pair p.
  auto holds = [&](size_t pos, RecordId row, RecordId col, PairId p) {
    const size_t k = pos - adj.RowStart(row);
    return pos >= adj.RowStart(row) && k < adj.RowCols(row).size() &&
           adj.RowCols(row)[k] == col && g.EdgePairIds(row)[k] == p;
  };
  for (PairId p = 0; p < pairs.size(); ++p) {
    const RecordPair& rp = pairs.pair(p);
    const RecordGraph::EdgePositions pos = g.PositionsOf(p);
    EXPECT_TRUE(holds(pos.ab, rp.a, rp.b, p)) << "pair " << p;
    EXPECT_TRUE(holds(pos.ba, rp.b, rp.a, p)) << "pair " << p;
    EXPECT_EQ(static_cast<int64_t>(pos.ab), adj.PositionOf(rp.a, rp.b));
    EXPECT_EQ(static_cast<int64_t>(pos.ba), adj.PositionOf(rp.b, rp.a));
  }
}

TEST_P(RecordGraphRandom, SetWeightsEqualsFreshBuild) {
  auto [n, density, seed] = GetParam();
  const PairSpace pairs = RandomPairSpace(n, density, seed);
  RecordGraph g = RecordGraph::Build(
      n, pairs, RandomSimilarities(pairs.size(), seed + 1));
  const std::vector<double> next = RandomSimilarities(pairs.size(), seed + 2);
  g.SetWeights(next);
  const RecordGraph fresh = RecordGraph::Build(n, pairs, next);
  for (RecordId r = 0; r < n; ++r) {
    const auto got = g.Weights(r);
    const auto want = fresh.Weights(r);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "row " << r;
  }
}

// The cached answers against a fresh BFS 2-colouring and the density
// formula, on random graphs that mostly have odd cycles and on their
// two-colour halves (only edges between even and odd ids), which never do.
TEST_P(RecordGraphRandom, CachedBipartiteAndDensityMatchRecomputation) {
  auto [n, density, seed] = GetParam();
  const PairSpace all = RandomPairSpace(n, density, seed);
  PairSpace cross;
  for (const RecordPair& rp : all.pairs()) {
    if ((rp.a + rp.b) % 2 == 1) cross.Append(rp.a, rp.b);
  }
  for (const PairSpace* pairs : {&all, static_cast<const PairSpace*>(&cross)}) {
    const RecordGraph g = RecordGraph::Build(
        n, *pairs, std::vector<double>(pairs->size(), 1.0));
    std::vector<int> side(n, 0);
    bool bipartite = true;
    for (RecordId root = 0; root < n; ++root) {
      if (side[root] != 0) continue;
      side[root] = 1;
      std::vector<RecordId> stack = {root};
      while (!stack.empty()) {
        const RecordId r = stack.back();
        stack.pop_back();
        for (RecordId nb : g.Neighbors(r)) {
          if (side[nb] == 0) {
            side[nb] = -side[r];
            stack.push_back(nb);
          } else if (side[nb] == side[r]) {
            bipartite = false;
          }
        }
      }
    }
    EXPECT_EQ(g.IsBipartite(), bipartite);
    if (pairs == &cross) {
      EXPECT_TRUE(g.IsBipartite());
    }
    const double want =
        n < 2 ? 0.0
              : static_cast<double>(pairs->size()) /
                    (static_cast<double>(n) * (n - 1) / 2.0);
    EXPECT_EQ(g.Density(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, RecordGraphRandom,
    ::testing::Values(std::make_tuple(0, 0.5, 1), std::make_tuple(1, 0.5, 2),
                      std::make_tuple(2, 1.0, 3), std::make_tuple(9, 0.4, 4),
                      std::make_tuple(40, 0.1, 5), std::make_tuple(40, 0.6, 6),
                      std::make_tuple(120, 0.05, 7),
                      std::make_tuple(64, 1.0, 8)));

TEST(RecordGraphDeathTest, OutOfRangeRecordIdAborts) {
  PairSpace pairs;
  pairs.Append(0, 5);
  EXPECT_DEATH(RecordGraph::Build(3, pairs, {1.0}), "GTER_CHECK");
}

}  // namespace
}  // namespace gter
