#include "gter/eval/cluster_metrics.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(ClusterMetricsTest, PerfectClustering) {
  GroundTruth truth({0, 0, 1, 1, 2});
  auto eval = EvaluateClustering({0, 0, 1, 1, 2}, truth);
  EXPECT_DOUBLE_EQ(eval.pairwise_precision, 1.0);
  EXPECT_DOUBLE_EQ(eval.pairwise_recall, 1.0);
  EXPECT_DOUBLE_EQ(eval.pairwise_f1, 1.0);
  EXPECT_NEAR(eval.adjusted_rand_index, 1.0, 1e-12);
  EXPECT_EQ(eval.num_predicted_clusters, 3u);
}

TEST(ClusterMetricsTest, AllSingletonsPredicted) {
  GroundTruth truth({0, 0, 1, 1});
  auto eval = EvaluateClustering({0, 1, 2, 3}, truth);
  EXPECT_DOUBLE_EQ(eval.pairwise_recall, 0.0);
  EXPECT_DOUBLE_EQ(eval.pairwise_f1, 0.0);
}

TEST(ClusterMetricsTest, EverythingMergedPredicted) {
  GroundTruth truth({0, 0, 1, 1});
  auto eval = EvaluateClustering({0, 0, 0, 0}, truth);
  EXPECT_DOUBLE_EQ(eval.pairwise_recall, 1.0);
  EXPECT_NEAR(eval.pairwise_precision, 2.0 / 6.0, 1e-12);
  EXPECT_LT(eval.adjusted_rand_index, 0.1);
}

TEST(ClusterMetricsTest, PartialOverlap) {
  GroundTruth truth({0, 0, 0, 1});
  // Predict {0,1}, {2,3}: together-pairs predicted = 2, correct = 1 (0-1).
  auto eval = EvaluateClustering({0, 0, 1, 1}, truth);
  EXPECT_DOUBLE_EQ(eval.pairwise_precision, 0.5);
  EXPECT_NEAR(eval.pairwise_recall, 1.0 / 3.0, 1e-12);
}

TEST(ClusterMetricsTest, LabelPermutationInvariance) {
  GroundTruth truth({0, 0, 1, 1, 2});
  auto a = EvaluateClustering({0, 0, 1, 1, 2}, truth);
  auto b = EvaluateClustering({7, 7, 3, 3, 9}, truth);
  EXPECT_DOUBLE_EQ(a.pairwise_f1, b.pairwise_f1);
  EXPECT_DOUBLE_EQ(a.adjusted_rand_index, b.adjusted_rand_index);
}

}  // namespace
}  // namespace gter
