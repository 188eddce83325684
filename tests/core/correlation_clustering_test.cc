#include "gter/core/correlation_clustering.h"

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/core/clusterer.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/eval/cluster_metrics.h"
#include "gter/core/fusion.h"

namespace gter {
namespace {

/// Builds a pair space over `n` records that all share one term, with a
/// given probability per pair (default 0 = strong "apart" vote).
struct Fixture {
  Dataset ds{"test"};
  PairSpace pairs;
  std::vector<double> probability;

  explicit Fixture(size_t n) {
    for (size_t i = 0; i < n; ++i) ds.AddRecord(0, "shared");
    pairs = PairSpace::Build(ds);
    probability.assign(pairs.size(), 0.0);
  }

  void Set(RecordId a, RecordId b, double p) {
    probability[pairs.Find(a, b)] = p;
  }
};

TEST(CorrelationClusteringTest, RecoversTwoCleanCliques) {
  Fixture f(6);
  for (RecordId a = 0; a < 3; ++a) {
    for (RecordId b = a + 1; b < 3; ++b) f.Set(a, b, 1.0);
  }
  for (RecordId a = 3; a < 6; ++a) {
    for (RecordId b = a + 1; b < 6; ++b) f.Set(a, b, 1.0);
  }
  auto result = CorrelationCluster(6, f.pairs, f.probability).value();
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[2]);
  EXPECT_EQ(result.cluster_of[3], result.cluster_of[4]);
  EXPECT_EQ(result.cluster_of[3], result.cluster_of[5]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[3]);
}

TEST(CorrelationClusteringTest, SingleFalseLinkIsOutvoted) {
  // Two 4-cliques joined by one spurious p=1 edge: transitive closure
  // merges everything; correlation clustering keeps them apart because 1
  // agree-vote cannot beat the 16 disagree-votes a merge would create.
  Fixture f(8);
  for (RecordId a = 0; a < 4; ++a) {
    for (RecordId b = a + 1; b < 4; ++b) f.Set(a, b, 1.0);
  }
  for (RecordId a = 4; a < 8; ++a) {
    for (RecordId b = a + 1; b < 8; ++b) f.Set(a, b, 1.0);
  }
  f.Set(0, 4, 1.0);  // the false link

  // Closure (the connected_components endgame at η = 0.98): one cluster.
  ClusterProblem problem;
  problem.num_records = 8;
  problem.pairs = &f.pairs;
  problem.pair_probability = &f.probability;
  problem.eta = 0.98;
  Clustering closure =
      Cluster(ClustererKind::kConnectedComponents, problem).value();
  EXPECT_EQ(closure.num_clusters, 1u);
  EXPECT_EQ(closure.cluster_of[0], closure.cluster_of[7]);

  // Correlation clustering: two clusters.
  auto result = CorrelationCluster(8, f.pairs, f.probability).value();
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[3]);
  EXPECT_EQ(result.cluster_of[4], result.cluster_of[7]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[4]);
}

TEST(CorrelationClusteringTest, AllApartWhenNoPositiveVotes) {
  Fixture f(5);  // all probabilities 0
  auto result = CorrelationCluster(5, f.pairs, f.probability).value();
  std::set<uint32_t> distinct(result.cluster_of.begin(),
                              result.cluster_of.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(CorrelationClusteringTest, ObjectiveMatchesHandCount) {
  Fixture f(3);
  f.Set(0, 1, 1.0);  // together-vote
  // (0,2) and (1,2) stay 0 → apart-votes.
  auto result = CorrelationCluster(3, f.pairs, f.probability).value();
  // Optimal: {0,1},{2} → agreement on all 3 pairs → objective 3.
  EXPECT_DOUBLE_EQ(result.objective, 3.0);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[2]);
}

TEST(CorrelationClusteringTest, DeterministicInSeed) {
  Fixture f(10);
  Rng rng(5);
  for (auto& p : f.probability) p = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  CorrelationClusteringOptions options;
  options.seed = 77;
  auto a = CorrelationCluster(10, f.pairs, f.probability, options).value();
  auto b = CorrelationCluster(10, f.pairs, f.probability, options).value();
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(CorrelationClusteringTest, LabelsAreDense) {
  Fixture f(7);
  f.Set(2, 5, 1.0);
  auto result = CorrelationCluster(7, f.pairs, f.probability).value();
  uint32_t max_label = 0;
  for (uint32_t l : result.cluster_of) max_label = std::max(max_label, l);
  std::set<uint32_t> distinct(result.cluster_of.begin(),
                              result.cluster_of.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(max_label) + 1);
}

TEST(CorrelationClusteringTest, BeatsClosureOnCitationBenchmark) {
  // The motivating production case: on clique-heavy data, closure chains
  // saturated false positives into mega-clusters; correlation clustering
  // outvotes them.
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.15, 11);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config;
  config.rounds = 2;
  config.cliquerank.max_steps = 10;
  FusionPipeline pipeline(data.dataset, config);
  FusionResult fused = pipeline.Run().value();

  auto corr = CorrelationCluster(data.dataset.size(), pipeline.pairs(),
                                 fused.pair_probability).value();

  // The default endgame, connected_components, is the closure of the
  // p ≥ η matches.
  double f1_closure =
      EvaluateClustering(fused.cluster_of, data.truth).pairwise_f1;
  double f1_corr =
      EvaluateClustering(corr.cluster_of, data.truth).pairwise_f1;
  EXPECT_GT(f1_corr, f1_closure);
  EXPECT_GT(f1_corr, 0.75);
}

}  // namespace
}  // namespace gter
