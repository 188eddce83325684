#include "gter/core/fusion.h"

#include <gtest/gtest.h>

#include "gter/common/thread_pool.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/eval/confusion.h"
#include "gter/eval/threshold_sweep.h"

namespace gter {
namespace {

FusionConfig FastConfig() {
  FusionConfig config;
  config.rounds = 3;
  config.cliquerank.max_steps = 10;
  return config;
}

TEST(FusionTest, ResolvesSmallRestaurantBenchmarkWell) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.15, 3);
  RemoveFrequentTerms(&data.dataset);
  FusionPipeline pipeline(data.dataset, FastConfig());
  FusionResult result = pipeline.Run().value();

  auto labels = LabelPairs(pipeline.pairs(), data.truth);
  Confusion c = EvaluatePairPredictions(pipeline.pairs(), result.matches,
                                        labels,
                                        TotalPositives(data.dataset, data.truth));
  EXPECT_GT(c.F1(), 0.7);
}

TEST(FusionTest, OutputShapesAreConsistent) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 5);
  RemoveFrequentTerms(&data.dataset);
  FusionPipeline pipeline(data.dataset, FastConfig());
  FusionResult result = pipeline.Run().value();
  EXPECT_EQ(result.pair_scores.size(), pipeline.pairs().size());
  EXPECT_EQ(result.pair_probability.size(), pipeline.pairs().size());
  EXPECT_EQ(result.matches.size(), pipeline.pairs().size());
  EXPECT_EQ(result.term_weights.size(), data.dataset.vocabulary().size());
  for (double p : result.pair_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FusionTest, EmptyDatasetGivesEmptyResult) {
  // A header-only CSV loads as a dataset with no records.
  Dataset empty("empty");
  for (CliqueRankEngine engine :
       {CliqueRankEngine::kDense, CliqueRankEngine::kMaskedSparse}) {
    FusionConfig config = FastConfig();
    config.cliquerank.engine = engine;
    FusionPipeline pipeline(empty, config);
    Result<FusionResult> result = pipeline.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(pipeline.pairs().size(), 0u);
    EXPECT_TRUE(result.value().pair_probability.empty());
    EXPECT_TRUE(result.value().matches.empty());
    EXPECT_TRUE(result.value().cluster_of.empty());
    EXPECT_EQ(result.value().num_clusters, 0u);
    EXPECT_EQ(result.value().round_stats.size(), config.rounds);
  }
}

TEST(FusionTest, RoundStatsAreRecordedAndCumulative) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 5);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config = FastConfig();
  config.rounds = 4;
  FusionPipeline pipeline(data.dataset, config);
  FusionResult result = pipeline.Run().value();
  ASSERT_EQ(result.round_stats.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(result.round_stats[r].round, r + 1);
    EXPECT_GT(result.round_stats[r].iter_iterations, 0u);
    if (r > 0) {
      EXPECT_GE(result.round_stats[r].cumulative_seconds,
                result.round_stats[r - 1].cumulative_seconds);
    }
  }
}

TEST(FusionTest, ObserverFiresOncePerRound) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 5);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config = FastConfig();
  config.rounds = 3;
  FusionPipeline pipeline(data.dataset, config);
  std::vector<size_t> seen;
  pipeline.set_round_observer([&](size_t round, const FusionResult& snapshot) {
    seen.push_back(round);
    EXPECT_EQ(snapshot.pair_probability.size(), pipeline.pairs().size());
  });
  pipeline.Run().value();
  EXPECT_EQ(seen, (std::vector<size_t>{1, 2, 3}));
}

TEST(FusionTest, FirstIterTraceRecordedWhenRequested) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 5);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config = FastConfig();
  config.iter.track_convergence = true;
  FusionPipeline pipeline(data.dataset, config);
  FusionResult result = pipeline.Run().value();
  EXPECT_FALSE(result.first_iter_trace.empty());
}

TEST(FusionTest, ReinforcementImprovesOverFirstRound) {
  // Table V's shape: later-round F1 (optimal-threshold on probability)
  // should not degrade materially vs round 1 and typically improves.
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.08, 7);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config;
  config.rounds = 3;
  config.cliquerank.max_steps = 10;
  FusionPipeline pipeline(data.dataset, config);
  auto labels = LabelPairs(pipeline.pairs(), data.truth);
  uint64_t positives = TotalPositives(data.dataset, data.truth);
  std::vector<double> f1_by_round;
  pipeline.set_round_observer([&](size_t, const FusionResult& snapshot) {
    SweepResult sweep =
        BestF1Threshold(snapshot.pair_probability, labels, positives);
    f1_by_round.push_back(sweep.f1);
  });
  pipeline.Run().value();
  ASSERT_EQ(f1_by_round.size(), 3u);
  EXPECT_GE(f1_by_round.back(), f1_by_round.front() - 0.02);
}

TEST(FusionTest, EtaThresholdControlsMatches) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 5);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig strict = FastConfig();
  strict.eta = 0.999;
  FusionConfig loose = FastConfig();
  loose.eta = 0.5;
  FusionResult rs = FusionPipeline(data.dataset, strict).Run().value();
  FusionResult rl = FusionPipeline(data.dataset, loose).Run().value();
  size_t strict_matches = std::count(rs.matches.begin(), rs.matches.end(), true);
  size_t loose_matches = std::count(rl.matches.begin(), rl.matches.end(), true);
  EXPECT_LE(strict_matches, loose_matches);
}

// Run's one path from probabilities to entities: the η rule decides every
// pair, and the configured clusterer alone forms the entities, on
// one-source (Restaurant) and two-source (Product) data.
TEST(FusionTest, EtaRuleDecidesAndClustererFormsEntities) {
  for (auto [kind, sources] : {std::pair{BenchmarkKind::kRestaurant, 1u},
                               std::pair{BenchmarkKind::kProduct, 2u}}) {
    SCOPED_TRACE(BenchmarkName(kind));
    auto data = GenerateBenchmark(kind, 0.1, 5);
    RemoveFrequentTerms(&data.dataset);
    ASSERT_EQ(data.dataset.num_sources(), sources);
    const FusionConfig config = FastConfig();
    FusionPipeline pipeline(data.dataset, config);
    FusionResult result = pipeline.Run().value();
    const PairSpace& pairs = pipeline.pairs();

    ASSERT_EQ(result.matches.size(), pairs.size());
    size_t matched = 0;
    for (PairId p = 0; p < pairs.size(); ++p) {
      ASSERT_EQ(result.matches[p], result.pair_probability[p] >= config.eta)
          << "pair " << p;
      matched += result.matches[p];
    }
    EXPECT_GT(matched, 0u);

    ClusterProblem problem;
    problem.num_records = data.dataset.size();
    problem.pairs = &pairs;
    problem.pair_probability = &result.pair_probability;
    problem.eta = config.eta;
    std::vector<uint32_t> source_of;
    if (sources > 1) {
      for (const Record& r : data.dataset.records()) {
        source_of.push_back(r.source);
      }
      problem.source_of = &source_of;
    }
    Clustering expected =
        Cluster(config.clusterer, problem, config.clusterer_options).value();
    EXPECT_EQ(result.cluster_of, expected.cluster_of);
    EXPECT_EQ(result.num_clusters, expected.num_clusters);

    ASSERT_EQ(result.cluster_of.size(), data.dataset.size());
    for (PairId p = 0; p < pairs.size(); ++p) {
      if (!result.matches[p]) continue;
      const RecordPair& rp = pairs.pair(p);
      EXPECT_EQ(result.cluster_of[rp.a], result.cluster_of[rp.b])
          << "pair " << p;
    }
  }
}

// Run's rounds rebuilt from the public pieces, with a fresh RecordGraph
// every round: ITER, RecordGraph::Build, CliqueRank, then the η rule and
// the configured clusterer.
FusionResult RebuildEveryRound(const Dataset& ds, const FusionConfig& config,
                               const ExecContext& ctx) {
  const PairSpace pairs = PairSpace::Build(ds);
  const BipartiteGraph bipartite = BipartiteGraph::Build(ds, pairs);
  FusionResult result;
  result.pair_probability.assign(pairs.size(), 1.0);
  for (size_t round = 1; round <= config.rounds; ++round) {
    IterOptions iter_options = config.iter;
    iter_options.track_convergence =
        config.iter.track_convergence && round == 1;
    IterResult iter =
        RunIter(bipartite, result.pair_probability, iter_options, ctx).value();
    if (iter_options.track_convergence) {
      result.first_iter_trace = iter.update_trace;
    }
    result.term_weights = std::move(iter.term_weights);
    result.pair_scores = std::move(iter.pair_scores);
    const RecordGraph graph =
        RecordGraph::Build(ds.size(), pairs, result.pair_scores);
    result.pair_probability =
        RunCliqueRank(graph, pairs, config.cliquerank, ctx)
            .value()
            .pair_probability;
  }
  result.matches.resize(pairs.size());
  for (PairId p = 0; p < pairs.size(); ++p) {
    result.matches[p] = result.pair_probability[p] >= config.eta;
  }
  ClusterProblem problem;
  problem.num_records = ds.size();
  problem.pairs = &pairs;
  problem.pair_probability = &result.pair_probability;
  problem.eta = config.eta;
  std::vector<uint32_t> source_of;
  if (ds.num_sources() > 1) {
    for (const Record& r : ds.records()) source_of.push_back(r.source);
    problem.source_of = &source_of;
  }
  Clustering clustering =
      Cluster(config.clusterer, problem, config.clusterer_options, ctx)
          .value();
  result.cluster_of = std::move(clustering.cluster_of);
  result.num_clusters = clustering.num_clusters;
  return result;
}

// Run builds G_r once and reweights it in later rounds; its output must be
// the per-round rebuild's, bit for bit, on two-source data (bipartite, one
// CliqueRank step) and one-source data (triangles, every step), serial and
// pooled.
TEST(FusionTest, RunEqualsPerRoundRebuildBitwise) {
  ThreadPool pool(4);
  for (auto [kind, scale] : {std::pair{BenchmarkKind::kProduct, 0.1},
                             std::pair{BenchmarkKind::kPaper, 0.08}}) {
    auto data = GenerateBenchmark(kind, scale, 9);
    RemoveFrequentTerms(&data.dataset);
    FusionConfig config = FastConfig();
    config.iter.track_convergence = true;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(BenchmarkName(kind) + (p ? " pooled" : " serial"));
      const ExecContext ctx = ExecContext::WithPool(p);
      const FusionResult want = RebuildEveryRound(data.dataset, config, ctx);
      const FusionResult got =
          FusionPipeline(data.dataset, config).Run(ctx).value();
      EXPECT_EQ(got.pair_probability, want.pair_probability);
      EXPECT_EQ(got.pair_scores, want.pair_scores);
      EXPECT_EQ(got.term_weights, want.term_weights);
      EXPECT_EQ(got.first_iter_trace, want.first_iter_trace);
      EXPECT_EQ(got.matches, want.matches);
      EXPECT_EQ(got.cluster_of, want.cluster_of);
      EXPECT_EQ(got.num_clusters, want.num_clusters);
      EXPECT_GT(std::count(got.matches.begin(), got.matches.end(), true), 0);
    }
  }
}

}  // namespace
}  // namespace gter
