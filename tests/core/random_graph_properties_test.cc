// Property sweeps over random record graphs: invariants that must hold for
// ANY input, checked across sizes, densities and exponents (TEST_P).

#include <tuple>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/core/cliquerank.h"
#include "gter/core/iter.h"
#include "gter/core/rss.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {
namespace {

/// A random dataset where records draw `terms_per_record` terms from a
/// vocabulary of `vocab` pseudo-terms — every structural shape the
/// algorithms must tolerate emerges at some (n, vocab) corner: dense
/// near-cliques, isolated records, huge tied rows.
struct RandomWorld {
  Dataset ds{"random"};
  PairSpace pairs;
  std::vector<double> sims;
  RecordGraph graph;

  RandomWorld(size_t n, size_t vocab, size_t terms_per_record, uint64_t seed)
      : pairs(Build(n, vocab, terms_per_record, seed)),
        graph(BuildGraph(seed)) {}

  PairSpace Build(size_t n, size_t vocab, size_t terms_per_record,
                  uint64_t seed) {
    Rng rng(seed);
    for (size_t r = 0; r < n; ++r) {
      std::string text;
      for (size_t t = 0; t < terms_per_record; ++t) {
        text.push_back('t');
        text += std::to_string(rng.NextBounded(vocab));
        text.push_back(' ');
      }
      ds.AddRecord(0, text);
    }
    return PairSpace::Build(ds);
  }

  RecordGraph BuildGraph(uint64_t seed) {
    Rng rng(seed + 1);
    sims.resize(pairs.size());
    for (auto& s : sims) s = rng.UniformDouble();
    return RecordGraph::Build(ds.size(), pairs, sims);
  }
};

class RandomGraphProperties
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, double, uint64_t>> {};

TEST_P(RandomGraphProperties, CliqueRankEnginesAgreeAndStayBounded) {
  auto [n, vocab, alpha, seed] = GetParam();
  RandomWorld world(n, vocab, 4, seed);
  if (world.pairs.size() == 0) GTEST_SKIP() << "no candidate pairs";

  CliqueRankOptions dense;
  dense.engine = CliqueRankEngine::kDense;
  dense.alpha = alpha;
  CliqueRankOptions masked = dense;
  masked.engine = CliqueRankEngine::kMaskedSparse;

  auto rd = RunCliqueRank(world.graph, world.pairs, dense).value();
  auto rm = RunCliqueRank(world.graph, world.pairs, masked).value();
  for (PairId p = 0; p < world.pairs.size(); ++p) {
    EXPECT_NEAR(rd.pair_probability[p], rm.pair_probability[p], 1e-9);
    EXPECT_GE(rd.pair_probability[p], 0.0);
    EXPECT_LE(rd.pair_probability[p], 1.0);
  }
}

TEST_P(RandomGraphProperties, TransitionRowsAreStochastic) {
  auto [n, vocab, alpha, seed] = GetParam();
  RandomWorld world(n, vocab, 4, seed);
  // Records with no candidate pair are isolated nodes: their transition row
  // must be empty (sum exactly 0), every other row must sum to 1.
  std::vector<size_t> degree(world.ds.size(), 0);
  for (const RecordPair& rp : world.pairs.pairs()) {
    ++degree[rp.a];
    ++degree[rp.b];
  }
  CliqueRankOptions options;
  options.alpha = alpha;
  const std::vector<double> mt =
      TransitionAndBoost(world.graph, options).transition;
  const CsrMatrix& pattern = world.graph.AdjacencyMatrix();
  ASSERT_EQ(pattern.rows(), world.ds.size());
  ASSERT_EQ(mt.size(), pattern.nnz());
  for (size_t r = 0; r < pattern.rows(); ++r) {
    double sum = 0.0;
    for (size_t e = 0; e < pattern.RowCols(r).size(); ++e) {
      const double v = mt[pattern.RowStart(r) + e];
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    if (degree[r] == 0) {
      EXPECT_EQ(sum, 0.0) << "isolated node " << r << " has outgoing mass";
    } else {
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << r;
    }
  }
}

TEST_P(RandomGraphProperties, BoostedValuesStayInUnitInterval) {
  auto [n, vocab, alpha, seed] = GetParam();
  (void)alpha;
  RandomWorld world(n, vocab, 4, seed);
  if (world.pairs.size() == 0) GTEST_SKIP();
  // Eq. 12 maps t = M_t[i,j] through B·t/(1−t+B·t) with B = (1+b)^α > 1;
  // the result must stay in (0,1) whenever t ∈ (0,1), hit 1 exactly when
  // t = 1, and this must hold for ANY α and either boost realization.
  Rng rng(seed * 31 + 7);
  for (BoostMode mode : {BoostMode::kSampled, BoostMode::kExpected}) {
    CliqueRankOptions options;
    options.alpha = 1.0 + 3.0 * rng.UniformDouble();  // α ∈ [1, 4]
    options.boost_mode = mode;
    options.seed = seed;
    const CliqueRankSetup setup = TransitionAndBoost(world.graph, options);
    ASSERT_EQ(setup.boosted.size(), setup.transition.size());
    for (size_t e = 0; e < setup.transition.size(); ++e) {
      const double t = setup.transition[e];
      const double v = setup.boosted[e];
      if (t == 1.0) {
        EXPECT_DOUBLE_EQ(v, 1.0);
      } else {
        EXPECT_GT(v, 0.0) << "t=" << t;
        EXPECT_LT(v, 1.0) << "t=" << t;
        EXPECT_GE(v, t);  // the boost never shrinks a transition
      }
    }
  }
}

TEST_P(RandomGraphProperties, RssProbabilitiesValidAndSeedStable) {
  auto [n, vocab, alpha, seed] = GetParam();
  if (n > 40) GTEST_SKIP() << "RSS sweep kept small";
  RandomWorld world(n, vocab, 4, seed);
  if (world.pairs.size() == 0) GTEST_SKIP();
  RssOptions options;
  options.alpha = alpha;
  options.num_walks = 20;
  options.max_steps = 6;
  auto a = RunRss(world.graph, world.pairs, options).value();
  auto b = RunRss(world.graph, world.pairs, options).value();
  EXPECT_EQ(a, b);
  for (double p : a) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(RandomGraphProperties, IterConvergesOnRandomBipartiteGraphs) {
  auto [n, vocab, alpha, seed] = GetParam();
  (void)alpha;
  RandomWorld world(n, vocab, 4, seed);
  if (world.pairs.size() == 0) GTEST_SKIP();
  BipartiteGraph graph = BipartiteGraph::Build(world.ds, world.pairs);
  // Terms whose only pair is self-referential decay harmonically (x ←
  // x/(1+x)), so tight tolerances need unbounded sweeps on adversarial
  // graphs; the practical guarantee is convergence at a modest tolerance.
  IterOptions options;
  options.tolerance = 1e-3;
  options.max_iterations = 300;
  IterResult result =
      RunIter(graph, std::vector<double>(world.pairs.size(), 1.0), options)
          .value();
  EXPECT_TRUE(result.converged);
  for (double x : result.term_weights) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);  // logistic normalization keeps weights in [0, 1)
  }
  for (PairId p = 0; p < world.pairs.size(); ++p) {
    double expected = 0.0;
    for (TermId t : graph.TermsOfPair(p)) expected += result.term_weights[t];
    EXPECT_NEAR(result.pair_scores[p], expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, RandomGraphProperties,
    ::testing::Values(
        // (records, vocab, alpha, seed): sparse, dense, tied, sharp.
        std::make_tuple<size_t, size_t, double, uint64_t>(10, 100, 20.0, 1),
        std::make_tuple<size_t, size_t, double, uint64_t>(30, 20, 20.0, 2),
        std::make_tuple<size_t, size_t, double, uint64_t>(30, 5, 5.0, 3),
        std::make_tuple<size_t, size_t, double, uint64_t>(60, 40, 1.0, 4),
        std::make_tuple<size_t, size_t, double, uint64_t>(60, 200, 40.0, 5),
        std::make_tuple<size_t, size_t, double, uint64_t>(25, 3, 20.0, 6)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_v";
      name += std::to_string(std::get<1>(info.param));
      name += "_a";
      name += std::to_string(static_cast<int>(std::get<2>(info.param)));
      name += "_s";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

}  // namespace
}  // namespace gter
