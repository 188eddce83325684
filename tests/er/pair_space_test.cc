#include "gter/er/pair_space.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(PairSpaceTest, OnlySharingPairsMaterialized) {
  Dataset ds("test");
  ds.AddRecord(0, "a b");   // 0
  ds.AddRecord(0, "b c");   // 1
  ds.AddRecord(0, "x y");   // 2
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 1u);
  EXPECT_NE(space.Find(0, 1), kInvalidPairId);
  EXPECT_EQ(space.Find(0, 2), kInvalidPairId);
  EXPECT_EQ(space.Find(1, 2), kInvalidPairId);
}

TEST(PairSpaceTest, FindIsOrderInsensitive) {
  Dataset ds("test");
  ds.AddRecord(0, "a");
  ds.AddRecord(0, "a");
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.Find(0, 1), space.Find(1, 0));
}

TEST(PairSpaceTest, PairsStoredWithSmallerIdFirst) {
  Dataset ds("test");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 3u);
  for (const RecordPair& rp : space.pairs()) EXPECT_LT(rp.a, rp.b);
}

TEST(PairSpaceTest, MultipleSharedTermsYieldOnePair) {
  Dataset ds("test");
  ds.AddRecord(0, "a b c");
  ds.AddRecord(0, "a b d");
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 1u);
}

TEST(PairSpaceTest, TwoSourceRestrictsToCrossPairs) {
  Dataset ds("two", 2);
  ds.AddRecord(0, "shared x");  // 0
  ds.AddRecord(0, "shared y");  // 1  — same source as 0
  ds.AddRecord(1, "shared z");  // 2
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.Find(0, 1), kInvalidPairId);  // same-source pair excluded
  EXPECT_NE(space.Find(0, 2), kInvalidPairId);
  EXPECT_NE(space.Find(1, 2), kInvalidPairId);
}

TEST(PairSpaceTest, EmptyDatasetYieldsNoPairs) {
  Dataset ds("test");
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 0u);
}

TEST(PairSpaceTest, CliqueOfSharers) {
  Dataset ds("test");
  for (int i = 0; i < 6; ++i) ds.AddRecord(0, "common");
  PairSpace space = PairSpace::Build(ds);
  EXPECT_EQ(space.size(), 15u);  // 6 choose 2
}

TEST(PairSpaceTest, AppendAssignsStableIdsAndDedupes) {
  PairSpace space;
  PairId p0 = space.Append(3, 1);  // canonicalized to (1, 3)
  PairId p1 = space.Append(2, 5);
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.pairs()[p0].a, 1u);
  EXPECT_EQ(space.pairs()[p0].b, 3u);
  // Re-appending (either orientation) returns the existing id.
  EXPECT_EQ(space.Append(1, 3), p0);
  EXPECT_EQ(space.Append(5, 2), p1);
  EXPECT_EQ(space.size(), 2u);
  // Find sees appended pairs.
  EXPECT_EQ(space.Find(3, 1), p0);
  EXPECT_EQ(space.Find(2, 5), p1);
  EXPECT_EQ(space.Find(1, 2), kInvalidPairId);
}

TEST(PairSpaceTest, AppendInterleavesWithBuild) {
  Dataset ds("test");
  ds.AddRecord(0, "a b");
  ds.AddRecord(0, "b c");
  ds.AddRecord(0, "x");
  PairSpace space = PairSpace::Build(ds);
  ASSERT_EQ(space.size(), 1u);
  PairId existing = space.Find(0, 1);
  // Built pairs dedupe through Append; new pairs extend the id space.
  EXPECT_EQ(space.Append(1, 0), existing);
  PairId fresh = space.Append(2, 0);
  EXPECT_EQ(fresh, 1u);
  EXPECT_EQ(space.Find(0, 2), fresh);
}

}  // namespace
}  // namespace gter
