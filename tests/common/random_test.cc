#include "gter/common/random.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  size_t equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4u);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr size_t kBuckets = 10;
  constexpr size_t kDraws = 100000;
  std::vector<size_t> counts(kBuckets, 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / kBuckets,
                0.05 * kDraws / kBuckets);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, OpenUniformDoubleNeverZero) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.OpenUniformDouble(), 0.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  size_t hits = 0;
  constexpr size_t kDraws = 100000;
  for (size_t i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(17);
  constexpr size_t kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < kDraws; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / kDraws;
  double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(19);
  double sum = 0.0;
  constexpr size_t kDraws = 100000;
  for (size_t i = 0; i < kDraws; ++i) sum += rng.Gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, ShuffleWorksOnVectorBool) {
  Rng rng(23);
  std::vector<bool> items(10, false);
  items[0] = items[1] = items[2] = true;
  rng.Shuffle(&items);
  EXPECT_EQ(std::count(items.begin(), items.end(), true), 3);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(25);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleAllElements) {
  Rng rng(27);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(31);
  Rng child_a = base.Fork(0);
  Rng child_b = base.Fork(1);
  size_t equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a.Next() == child_b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4u);
  // Fork is deterministic in (seed, stream).
  Rng again = base.Fork(0);
  Rng child_a2 = Rng(31).Fork(0);
  EXPECT_EQ(again.Next(), child_a2.Next());
}

}  // namespace
}  // namespace gter
