#include "gter/core/cliquerank.h"

#include <gtest/gtest.h>

#include "gter/common/metrics.h"
#include "gter/common/thread_pool.h"
#include "gter/core/rss.h"

namespace gter {
namespace {

/// Same two-clique structure as the RSS tests.
struct TwoCliques {
  Dataset ds{"test"};
  PairSpace pairs;
  std::vector<double> sims;

  TwoCliques() {
    ds.AddRecord(0, "aa");        // 0
    ds.AddRecord(0, "aa");        // 1
    ds.AddRecord(0, "aa weak");   // 2
    ds.AddRecord(0, "bb weak");   // 3
    ds.AddRecord(0, "bb");        // 4
    ds.AddRecord(0, "bb");        // 5
    pairs = PairSpace::Build(ds);
    sims.assign(pairs.size(), 0.0);
    Set(0, 1, 0.9);
    Set(0, 2, 0.85);
    Set(1, 2, 0.9);
    Set(3, 4, 0.9);
    Set(3, 5, 0.85);
    Set(4, 5, 0.9);
    Set(2, 3, 0.1);
  }

  void Set(RecordId a, RecordId b, double w) { sims[pairs.Find(a, b)] = w; }

  RecordGraph Graph() const {
    return RecordGraph::Build(ds.size(), pairs, sims);
  }
};

TEST(CliqueRankTest, SeparatesCliquesFromBridge) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankResult result = RunCliqueRank(graph, f.pairs, {}).value();
  EXPECT_GT(result.pair_probability[f.pairs.Find(0, 1)], 0.9);
  EXPECT_GT(result.pair_probability[f.pairs.Find(4, 5)], 0.9);
  EXPECT_LT(result.pair_probability[f.pairs.Find(2, 3)],
            result.pair_probability[f.pairs.Find(0, 1)]);
}

TEST(CliqueRankTest, ProbabilitiesClampedToUnitInterval) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankOptions options;
  options.max_steps = 40;  // long accumulation would exceed 1 unclamped
  CliqueRankResult result = RunCliqueRank(graph, f.pairs, options).value();
  for (double p : result.pair_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(CliqueRankTest, DenseAndMaskedEnginesAgree) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankOptions dense_opts;
  dense_opts.engine = CliqueRankEngine::kDense;
  CliqueRankOptions masked_opts;
  masked_opts.engine = CliqueRankEngine::kMaskedSparse;
  auto dense = RunCliqueRank(graph, f.pairs, dense_opts).value();
  auto masked = RunCliqueRank(graph, f.pairs, masked_opts).value();
  // The two products are bit-identical (masked_multiply.h).
  EXPECT_EQ(dense.pair_probability, masked.pair_probability);
  EXPECT_EQ(dense.engine_used, CliqueRankEngine::kDense);
  EXPECT_EQ(masked.engine_used, CliqueRankEngine::kMaskedSparse);
}

TEST(CliqueRankTest, EmptyGraphGivesEmptyProbabilities) {
  const PairSpace pairs = PairSpace::FromPairs({});
  const RecordGraph graph = RecordGraph::Build(0, pairs, {});
  for (CliqueRankEngine engine :
       {CliqueRankEngine::kAuto, CliqueRankEngine::kDense,
        CliqueRankEngine::kMaskedSparse}) {
    CliqueRankOptions options;
    options.engine = engine;
    Result<CliqueRankResult> result = RunCliqueRank(graph, pairs, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().pair_probability.empty());
  }
}

TEST(CliqueRankTest, AutoEngineSelectsByDensity) {
  TwoCliques f;  // 7 edges over 15 possible → density ≈ 0.47
  RecordGraph graph = f.Graph();
  ASSERT_GE(graph.Density(), kDenseDensityThreshold);
  auto result = RunCliqueRank(graph, f.pairs, {}).value();
  EXPECT_EQ(result.engine_used, CliqueRankEngine::kDense);

  // The same two triangles and bridge among 12 records: 7 edges over 66
  // possible → density ≈ 0.11.
  const PairSpace sparse_pairs = PairSpace::FromPairs(
      {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {4, 5}});
  const RecordGraph sparse =
      RecordGraph::Build(12, sparse_pairs, {0.9, 0.85, 0.9, 0.1, 0.9, 0.85,
                                            0.9});
  ASSERT_LT(sparse.Density(), kDenseDensityThreshold);
  result = RunCliqueRank(sparse, sparse_pairs, {}).value();
  EXPECT_EQ(result.engine_used, CliqueRankEngine::kMaskedSparse);
}

TEST(CliqueRankTest, SingleStepEqualsBoostedTransition) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankOptions options;
  options.max_steps = 1;
  options.use_boost = false;  // then M¹ = M_t exactly
  auto result = RunCliqueRank(graph, f.pairs, options).value();
  const std::vector<double> mt = TransitionAndBoost(graph, options).transition;
  for (PairId p = 0; p < f.pairs.size(); ++p) {
    const RecordGraph::EdgePositions pos = graph.PositionsOf(p);
    double expected = (mt[pos.ab] + mt[pos.ba]) / 2.0;
    EXPECT_NEAR(result.pair_probability[p], std::min(expected, 1.0), 1e-12);
  }
}

TEST(CliqueRankTest, StepsCounterCountsEveryProductOnGraphWithTriangles) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  ASSERT_FALSE(graph.IsBipartite());
  for (CliqueRankEngine engine :
       {CliqueRankEngine::kDense, CliqueRankEngine::kMaskedSparse}) {
    MetricsRegistry registry;
    ExecContext ctx;
    ctx.metrics = &registry;
    CliqueRankOptions options;
    options.engine = engine;
    ASSERT_TRUE(RunCliqueRank(graph, f.pairs, options, ctx).ok());
    EXPECT_EQ(registry.Counter("cliquerank/steps"), options.max_steps - 1);
  }
}

TEST(CliqueRankTest, ExpectedBoostModeIsDeterministicAcrossSeeds) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankOptions a, b;
  a.boost_mode = b.boost_mode = BoostMode::kExpected;
  a.seed = 1;
  b.seed = 999;
  auto ra = RunCliqueRank(graph, f.pairs, a).value();
  auto rb = RunCliqueRank(graph, f.pairs, b).value();
  EXPECT_EQ(ra.pair_probability, rb.pair_probability);
}

TEST(CliqueRankTest, SampledBoostIsDeterministicInSeed) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  CliqueRankOptions options;
  options.seed = 42;
  auto a = RunCliqueRank(graph, f.pairs, options).value();
  auto b = RunCliqueRank(graph, f.pairs, options).value();
  EXPECT_EQ(a.pair_probability, b.pair_probability);
}

TEST(CliqueRankTest, BoostLiftsBigCliqueProbability) {
  // 12-node uniform clique, few steps: boost rescues reachability.
  Dataset ds("test");
  for (int i = 0; i < 12; ++i) ds.AddRecord(0, "big");
  PairSpace pairs = PairSpace::Build(ds);
  std::vector<double> sims(pairs.size(), 0.8);
  RecordGraph graph = RecordGraph::Build(ds.size(), pairs, sims);
  CliqueRankOptions with_boost;
  with_boost.max_steps = 5;
  CliqueRankOptions no_boost = with_boost;
  no_boost.use_boost = false;
  auto pb = RunCliqueRank(graph, pairs, with_boost).value();
  auto pp = RunCliqueRank(graph, pairs, no_boost).value();
  double mean_b = 0.0, mean_p = 0.0;
  for (PairId p = 0; p < pairs.size(); ++p) {
    mean_b += pb.pair_probability[p];
    mean_p += pp.pair_probability[p];
  }
  EXPECT_GT(mean_b, mean_p);
}

TEST(CliqueRankTest, AgreesWithRssOnCliqueStructure) {
  // The matrix method approximates the sampling method: both must rank
  // within-clique pairs above the bridge.
  TwoCliques f;
  RecordGraph graph = f.Graph();
  RssOptions rss_options;
  rss_options.num_walks = 400;
  auto rss = RunRss(graph, f.pairs, rss_options).value();
  auto cr = RunCliqueRank(graph, f.pairs, {}).value();
  PairId in_clique = f.pairs.Find(0, 1);
  PairId bridge = f.pairs.Find(2, 3);
  EXPECT_GT(rss[in_clique], rss[bridge]);
  EXPECT_GT(cr.pair_probability[in_clique], cr.pair_probability[bridge]);
}

TEST(CliqueRankTest, PairOfIsolatedRecords) {
  Dataset ds("test");
  ds.AddRecord(0, "only");
  ds.AddRecord(0, "only");
  PairSpace pairs = PairSpace::Build(ds);
  std::vector<double> sims(pairs.size(), 0.7);
  RecordGraph graph = RecordGraph::Build(ds.size(), pairs, sims);
  auto result = RunCliqueRank(graph, pairs, {}).value();
  EXPECT_GT(result.pair_probability[0], 0.9);
}

TEST(CliqueRankTest, ParallelPoolMatchesSequential) {
  TwoCliques f;
  RecordGraph graph = f.Graph();
  ThreadPool pool(4);
  auto a = RunCliqueRank(graph, f.pairs, {}).value();
  auto b =
      RunCliqueRank(graph, f.pairs, {}, ExecContext::WithPool(&pool)).value();
  for (PairId p = 0; p < f.pairs.size(); ++p) {
    EXPECT_NEAR(a.pair_probability[p], b.pair_probability[p], 1e-12);
  }
}

}  // namespace
}  // namespace gter
