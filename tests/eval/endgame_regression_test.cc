// Eval-harness regression test: a checked-in fixture dataset (the CSV
// interchange format, embedded below) with known ground truth runs through
// the full fusion pipeline once, then every clustering endgame
// re-partitions the trained probabilities. Each endgame's pairwise F1 is
// pinned inside a tolerance band — the same numbers `gter_cli
// eval-endgames` reports — so a quality regression in any endgame (or in
// the pipeline feeding it) fails here, not in production.
//
// The bands are ±0.10 around values measured at the pinned config
// (rounds=2, η=0.98, merge_threshold=0.5); everything downstream of the
// generator is deterministic at any thread count, so drift means a real
// behavioural change.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "gter/core/clusterer.h"
#include "gter/core/fusion.h"
#include "gter/er/csv.h"
#include "gter/er/preprocess.h"
#include "gter/eval/cluster_metrics.h"

namespace gter {
namespace {

// Two-source fixture: 8 duplicated entities plus 4 singletons. The city
// tokens (pasadena, marina, ...) are shared across entities, so the
// candidate space has cross-entity edges for the endgames to reject.
// Entities 0 (3 records) and 5 (4 records) exceed one record per source:
// the transitive endgames can recover them fully, while unique mapping
// caps at one partner per record — its pinned F1 sits strictly below the
// closure family's, and the bands encode that gap.
constexpr const char* kFixtureCsv =
    "entity,source,field\n"
    "0,0,golden dragon szechuan pasadena 8185551234\n"
    "0,0,golden dragon szechuan pasadena chinese 8185551234\n"
    "0,1,golden dragon szechuan restaurant pasadena\n"
    "1,0,blue lagoon seafood grill marina 3105559876\n"
    "1,1,blue lagoon seafood marina 3105559876\n"
    "2,0,taco fiesta cantina pasadena 2135550000\n"
    "2,1,taco fiesta cantina pasadena grill\n"
    "3,0,maple leaf diner marina 7185554321\n"
    "3,1,maple leaf diner marina breakfast\n"
    "4,0,crimson tulip bakery pasadena 3475551111\n"
    "4,1,crimson tulip bakery cafe pasadena\n"
    "5,0,silver birch teahouse marina 5035552222\n"
    "5,0,silver birch teahouse tearoom marina 5035552222\n"
    "5,1,silver birch teahouse marina 5035552222\n"
    "5,1,silver birch teahouse marina oolong 5035552222\n"
    "6,0,emerald koi sushi pasadena 2065553333\n"
    "6,1,emerald koi sushi bar pasadena\n"
    "7,0,rustic barrel brewery marina 3035554444\n"
    "7,1,rustic barrel brewery taproom marina\n"
    "8,0,lone cypress bistro carmel 8315555555\n"
    "9,1,velvet antler steakhouse bozeman 4065556666\n"
    "10,0,paper lantern noodle bar fresno 5595557777\n"
    "11,1,ivory gull chowder house astoria 5035558888\n";

struct F1Band {
  ClustererKind kind;
  double min;
  double max;
};

TEST(EndgameRegressionTest, EveryEndgameF1StaysInItsPinnedBand) {
  const std::string path = ::testing::TempDir() + "endgame_fixture.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(kFixtureCsv, f);
    std::fclose(f);
  }
  auto loaded = LoadDatasetCsv(path, "endgame-fixture", /*num_sources=*/2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto [dataset, truth] = std::move(loaded).value();
  ASSERT_EQ(dataset.size(), 23u);
  ASSERT_EQ(truth.num_entities(), 12u);
  // At 23 records the default 12% document-frequency cut would delete any
  // token seen 3+ times — including the entity-defining names. 30% keeps
  // those and still drops the shared city tokens (the blocking noise).
  PreprocessOptions preprocess;
  preprocess.max_df_ratio = 0.30;
  RemoveFrequentTerms(&dataset, preprocess);

  FusionConfig config;
  config.rounds = 2;
  FusionPipeline pipeline(dataset, config);
  Result<FusionResult> run = pipeline.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const FusionResult& result = run.value();

  ClusterProblem problem;
  problem.num_records = dataset.size();
  problem.pairs = &pipeline.pairs();
  problem.pair_probability = &result.pair_probability;
  problem.eta = config.eta;
  std::vector<uint32_t> source_of;
  source_of.reserve(dataset.size());
  for (const Record& r : dataset.records()) source_of.push_back(r.source);
  problem.source_of = &source_of;

  // Measured F1 at the pinned config, ±0.10. The three families land on
  // three distinct values: the transitive closures recover most of the
  // multi-record entities (0.889), unique mapping caps its recall
  // (0.696), and hierarchical sits between (0.750).
  const F1Band kBands[] = {
      {ClustererKind::kConnectedComponents, 0.79, 0.99},
      {ClustererKind::kCorrelation, 0.79, 0.99},
      {ClustererKind::kUniqueMapping, 0.60, 0.80},
      {ClustererKind::kHierarchical, 0.65, 0.85},
  };
  for (const F1Band& band : kBands) {
    SCOPED_TRACE(ClustererKindName(band.kind));
    Result<Clustering> clustered = Cluster(band.kind, problem);
    ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
    ClusterEvaluation eval =
        EvaluateClustering(clustered.value().cluster_of, truth);
    std::printf("[ band ] %-22s f1=%.4f prec=%.4f rec=%.4f clusters=%zu\n",
                ClustererKindName(band.kind), eval.pairwise_f1,
                eval.pairwise_precision, eval.pairwise_recall,
                eval.num_predicted_clusters);
    EXPECT_GE(eval.pairwise_f1, band.min);
    EXPECT_LE(eval.pairwise_f1, band.max);
  }
}

}  // namespace
}  // namespace gter
