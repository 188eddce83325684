#include "gter/er/blocking.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/graph/bipartite_graph.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

TEST(MinHasherTest, SignatureLengthAndDeterminism) {
  MinHasher hasher(64, 7);
  std::vector<TermId> terms = {1, 5, 9, 12};
  auto a = hasher.Signature(terms);
  auto b = hasher.Signature(terms);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b);
}

TEST(MinHasherTest, IdenticalSetsCollideEverywhere) {
  MinHasher hasher(32);
  std::vector<TermId> terms = {3, 14, 15};
  EXPECT_DOUBLE_EQ(
      MinHasher::EstimateJaccard(hasher.Signature(terms),
                                 hasher.Signature(terms)),
      1.0);
}

TEST(MinHasherTest, DisjointSetsRarelyCollide) {
  MinHasher hasher(128);
  std::vector<TermId> a = {1, 2, 3, 4, 5};
  std::vector<TermId> b = {100, 200, 300, 400, 500};
  EXPECT_LT(MinHasher::EstimateJaccard(hasher.Signature(a),
                                       hasher.Signature(b)),
            0.1);
}

/// Property sweep: the collision rate estimates Jaccard within sampling
/// error across overlap levels.
class MinHashJaccardEstimate
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinHashJaccardEstimate, EstimatesTrueJaccard) {
  auto [shared, exclusive] = GetParam();
  std::vector<TermId> a, b;
  for (int i = 0; i < shared; ++i) {
    a.push_back(static_cast<TermId>(i));
    b.push_back(static_cast<TermId>(i));
  }
  for (int i = 0; i < exclusive; ++i) {
    a.push_back(static_cast<TermId>(1000 + i));
    b.push_back(static_cast<TermId>(2000 + i));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double truth = JaccardSimilarity(a, b);
  MinHasher hasher(512, 11);
  double estimate =
      MinHasher::EstimateJaccard(hasher.Signature(a), hasher.Signature(b));
  // 512 hashes → stderr ≈ sqrt(J(1−J)/512) ≤ 0.023; allow 4σ.
  EXPECT_NEAR(estimate, truth, 0.09);
}

INSTANTIATE_TEST_SUITE_P(
    OverlapLevels, MinHashJaccardEstimate,
    ::testing::Values(std::make_tuple(0, 10), std::make_tuple(2, 8),
                      std::make_tuple(5, 5), std::make_tuple(8, 2),
                      std::make_tuple(10, 0)),
    [](const auto& info) {
      return "shared" + std::to_string(std::get<0>(info.param)) + "_excl" +
             std::to_string(std::get<1>(info.param));
    });

TEST(LshBlockingTest, HighRecallOnRestaurantMatches) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.3, 3);
  RemoveFrequentTerms(&data.dataset);
  // Short-listing matches have Jaccard ≈ 0.3, so high recall needs an
  // aggressive banding: 32 bands of 2 rows catch J=0.3 with p ≈ 0.95.
  LshBlockingOptions options;
  options.num_bands = 32;
  options.rows_per_band = 2;
  BlockingResult result = LshBlocking(data.dataset, options).value();
  EXPECT_GT(BlockingRecall(data.dataset, data.truth, result.pairs), 0.9);
  // And it must not devolve into all-pairs.
  size_t n = data.dataset.size();
  EXPECT_LT(result.pairs.size(), n * (n - 1) / 4);
}

TEST(LshBlockingTest, CrossSourceOnlyForTwoSourceData) {
  auto data = GenerateBenchmark(BenchmarkKind::kProduct, 0.1, 3);
  RemoveFrequentTerms(&data.dataset);
  BlockingResult result = LshBlocking(data.dataset, {}).value();
  for (const RecordPair& rp : result.pairs) {
    EXPECT_NE(data.dataset.record(rp.a).source,
              data.dataset.record(rp.b).source);
  }
}

TEST(LshBlockingTest, PairsAreOrderedAndUnique) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.15, 9);
  RemoveFrequentTerms(&data.dataset);
  BlockingResult result = LshBlocking(data.dataset, {}).value();
  std::set<std::pair<RecordId, RecordId>> seen;
  for (const RecordPair& rp : result.pairs) {
    EXPECT_LT(rp.a, rp.b);
    EXPECT_TRUE(seen.emplace(rp.a, rp.b).second);
  }
}

TEST(LshBlockingTest, MoreBandsNeverLowerRecall) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.2, 5);
  RemoveFrequentTerms(&data.dataset);
  LshBlockingOptions few;
  few.num_bands = 4;
  few.rows_per_band = 4;
  LshBlockingOptions many = few;
  many.num_bands = 32;
  double recall_few =
      BlockingRecall(data.dataset, data.truth,
                     LshBlocking(data.dataset, few).value().pairs);
  double recall_many =
      BlockingRecall(data.dataset, data.truth,
                     LshBlocking(data.dataset, many).value().pairs);
  EXPECT_GE(recall_many + 1e-12, recall_few);
}

TEST(CanopyBlockingTest, HighRecallWithFarFewerPairs) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.3, 3);
  RemoveFrequentTerms(&data.dataset);
  CanopyBlockingOptions options;
  options.loose_threshold = 0.15;
  options.tight_threshold = 0.6;
  BlockingResult result = CanopyBlocking(data.dataset, options).value();
  EXPECT_GT(BlockingRecall(data.dataset, data.truth, result.pairs), 0.9);
  size_t n = data.dataset.size();
  EXPECT_LT(result.pairs.size(), n * (n - 1) / 4);
  EXPECT_GT(result.buckets, 1u);
}

TEST(CanopyBlockingTest, LooserThresholdNeverLowersRecall) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.2, 5);
  RemoveFrequentTerms(&data.dataset);
  CanopyBlockingOptions tight;
  tight.loose_threshold = 0.5;
  tight.tight_threshold = 0.8;
  CanopyBlockingOptions loose = tight;
  loose.loose_threshold = 0.1;
  double r_tight =
      BlockingRecall(data.dataset, data.truth,
                     CanopyBlocking(data.dataset, tight).value().pairs);
  double r_loose =
      BlockingRecall(data.dataset, data.truth,
                     CanopyBlocking(data.dataset, loose).value().pairs);
  EXPECT_GE(r_loose + 1e-12, r_tight);
}

TEST(CanopyBlockingTest, CrossSourceOnlyForTwoSourceData) {
  auto data = GenerateBenchmark(BenchmarkKind::kProduct, 0.08, 3);
  RemoveFrequentTerms(&data.dataset);
  BlockingResult result = CanopyBlocking(data.dataset, {}).value();
  for (const RecordPair& rp : result.pairs) {
    EXPECT_NE(data.dataset.record(rp.a).source,
              data.dataset.record(rp.b).source);
  }
}

TEST(CanopyBlockingTest, EveryRecordEndsInSomeCanopy) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 13);
  RemoveFrequentTerms(&data.dataset);
  // Number of canopies is at most the number of records and at least 1.
  BlockingResult result = CanopyBlocking(data.dataset, {}).value();
  EXPECT_GE(result.buckets, 1u);
  EXPECT_LE(result.buckets, data.dataset.size());
}

// Two canopy members each share a term with the center, but not always
// with each other. Only pairs sharing a term are candidates (§V-B), so the
// blocker's output plugs into BipartiteGraph::Build via FromPairs.
TEST(CanopyBlockingTest, EveryPairSharesATermAndBuildsTheGraph) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.3, 13);
  RemoveFrequentTerms(&data.dataset);
  BlockingResult result = CanopyBlocking(data.dataset, {}).value();
  ASSERT_FALSE(result.pairs.empty());
  for (const RecordPair& rp : result.pairs) {
    ASSERT_GT(SortedIntersectionSize(data.dataset.record(rp.a).terms,
                                     data.dataset.record(rp.b).terms),
              0u)
        << rp.a << "," << rp.b;
  }
  PairSpace pairs = PairSpace::FromPairs(result.pairs);
  BipartiteGraph graph = BipartiteGraph::Build(data.dataset, pairs);
  EXPECT_EQ(graph.num_pairs(), result.pairs.size());
}

TEST(BlockingRecallTest, EmptyPairsZeroRecall) {
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 7);
  EXPECT_DOUBLE_EQ(BlockingRecall(data.dataset, data.truth, {}), 0.0);
}

}  // namespace
}  // namespace gter
