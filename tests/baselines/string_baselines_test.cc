#include <gtest/gtest.h>

#include "gter/baselines/jaccard_resolver.h"
#include "gter/baselines/tfidf_resolver.h"

namespace gter {
namespace {

struct Fixture {
  Dataset ds{"test"};
  PairSpace pairs;
  Fixture() {
    ds.AddRecord(0, "golden dragon palace main street");  // 0
    ds.AddRecord(0, "golden dragon palace main st");      // 1 near-dup of 0
    ds.AddRecord(0, "blue ocean grill main street");      // 2
    pairs = PairSpace::Build(ds);
  }
};

TEST(JaccardScorerTest, NearDuplicateScoresHighest) {
  Fixture f;
  JaccardScorer scorer;
  EXPECT_EQ(scorer.name(), "Jaccard");
  auto scores = scorer.Score(f.ds, f.pairs);
  ASSERT_EQ(scores.size(), f.pairs.size());
  EXPECT_GT(scores[f.pairs.Find(0, 1)], scores[f.pairs.Find(0, 2)]);
  EXPECT_GT(scores[f.pairs.Find(0, 1)], scores[f.pairs.Find(1, 2)]);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(JaccardScorerTest, ExactValue) {
  Fixture f;
  JaccardScorer scorer;
  auto scores = scorer.Score(f.ds, f.pairs);
  // Records 0 and 1: terms {golden,dragon,palace,main,street} vs
  // {golden,dragon,palace,main,st} — 4 shared, 6 union.
  EXPECT_NEAR(scores[f.pairs.Find(0, 1)], 4.0 / 6.0, 1e-12);
}

TEST(TfIdfScorerTest, NearDuplicateScoresHighest) {
  Fixture f;
  TfIdfScorer scorer;
  EXPECT_EQ(scorer.name(), "TF-IDF");
  auto scores = scorer.Score(f.ds, f.pairs);
  EXPECT_GT(scores[f.pairs.Find(0, 1)], scores[f.pairs.Find(0, 2)]);
}

TEST(TfIdfScorerTest, DiscriminativeTermsDominateCommonOnes) {
  Dataset ds("test");
  // Pairs (0,1) share the rare model code; (2,3) share only frequent words.
  ds.AddRecord(0, "sony pslx350h turntable system");
  ds.AddRecord(0, "sony pslx350h turntable deck");
  ds.AddRecord(0, "sony turntable system deck");
  ds.AddRecord(0, "sony turntable system player");
  PairSpace pairs = PairSpace::Build(ds);
  TfIdfScorer scorer;
  auto scores = scorer.Score(ds, pairs);
  EXPECT_GT(scores[pairs.Find(0, 1)], scores[pairs.Find(2, 3)]);
}

}  // namespace
}  // namespace gter
