// Whole-pipeline integration tests: synthetic benchmark → preprocessing →
// candidate pairs → fusion framework vs baselines → evaluation — the same
// path the Table II harness takes, at reduced scale.

#include <cstdio>

#include <gtest/gtest.h>

#include "gter/gter.h"

namespace gter {
namespace {

struct Pipeline {
  GeneratedDataset data;
  PairSpace pairs;
  std::vector<bool> labels;
  uint64_t positives;

  Pipeline(BenchmarkKind kind, double scale, uint64_t seed)
      : data(GenerateBenchmark(kind, scale, seed)) {
    RemoveFrequentTerms(&data.dataset);
    pairs = PairSpace::Build(data.dataset);
    labels = LabelPairs(pairs, data.truth);
    positives = TotalPositives(data.dataset, data.truth);
  }

  double BestF1Of(const std::vector<double>& scores) const {
    return BestF1Threshold(scores, labels, positives).f1;
  }
};

TEST(EndToEndTest, FusionBeatsJaccardOnRestaurant) {
  Pipeline p(BenchmarkKind::kRestaurant, 0.2, 42);
  FusionConfig config;
  config.rounds = 3;
  config.cliquerank.max_steps = 15;
  FusionPipeline fusion(p.data.dataset, config);
  FusionResult result = fusion.Run().value();
  double fusion_f1 =
      EvaluatePairPredictions(p.pairs, result.matches, p.labels, p.positives)
          .F1();
  double jaccard_f1 = p.BestF1Of(JaccardScorer().Score(p.data.dataset, p.pairs));
  // Fusion uses the universal η with NO threshold tuning, yet must at least
  // approach the oracle-tuned Jaccard baseline.
  EXPECT_GT(fusion_f1, 0.7);
  EXPECT_GT(fusion_f1 + 0.12, jaccard_f1);
}

TEST(EndToEndTest, FusionBeatsUnsupervisedBaselinesOnPaper) {
  Pipeline p(BenchmarkKind::kPaper, 0.12, 42);
  FusionConfig config;
  config.rounds = 3;
  config.cliquerank.max_steps = 15;
  FusionPipeline fusion(p.data.dataset, config);
  FusionResult result = fusion.Run().value();
  double fusion_f1 =
      EvaluatePairPredictions(p.pairs, result.matches, p.labels, p.positives)
          .F1();
  double jaccard_f1 = p.BestF1Of(JaccardScorer().Score(p.data.dataset, p.pairs));
  double pagerank_f1 =
      p.BestF1Of(TwIdfPageRankScorer().Score(p.data.dataset, p.pairs));
  EXPECT_GT(fusion_f1, 0.6);
  // Table II shape: on the Paper dataset the fusion framework dominates
  // the PageRank baseline decisively.
  EXPECT_GT(fusion_f1, pagerank_f1);
  EXPECT_GT(fusion_f1 + 0.1, jaccard_f1);
}

TEST(EndToEndTest, TfIdfBeatsJaccardOnProduct) {
  Pipeline p(BenchmarkKind::kProduct, 0.15, 42);
  double jaccard = p.BestF1Of(JaccardScorer().Score(p.data.dataset, p.pairs));
  double tfidf = p.BestF1Of(TfIdfScorer().Score(p.data.dataset, p.pairs));
  // Table II shape: TF-IDF ≫ Jaccard on the product benchmark.
  EXPECT_GT(tfidf, jaccard);
}

TEST(EndToEndTest, ItersTermRankingBeatsPageRankOnSpearman) {
  // Table IV's shape: ITER's term ranking correlates with the oracle
  // score(t); PageRank's does not. Measured on the Paper benchmark whose
  // oracle scores are continuous (the Restaurant oracle is almost entirely
  // ties at 0 and 1, which dilutes any rank correlation).
  Pipeline p(BenchmarkKind::kPaper, 0.15, 42);
  BipartiteGraph graph = BipartiteGraph::Build(p.data.dataset, p.pairs);
  IterResult iter =
      RunIter(graph, std::vector<double>(p.pairs.size(), 1.0)).value();
  TwIdfPageRankScorer pagerank;
  pagerank.Score(p.data.dataset, p.pairs);
  auto oracle = OracleTermScores(graph, p.pairs, p.data.truth);

  std::vector<double> iter_w, pr_w, oracle_w;
  for (TermId t = 0; t < graph.num_terms(); ++t) {
    if (graph.SetsOfTerm(t).empty()) continue;
    iter_w.push_back(iter.term_weights[t]);
    pr_w.push_back(pagerank.term_salience()[t]);
    oracle_w.push_back(oracle[t]);
  }
  double rho_iter = SpearmanRho(iter_w, oracle_w);
  double rho_pagerank = SpearmanRho(pr_w, oracle_w);
  EXPECT_GT(rho_iter, 0.6);
  EXPECT_GT(rho_iter, rho_pagerank + 0.2);
}

TEST(EndToEndTest, IterSeparatesDiscriminativeFromNoiseTermsOnRestaurant) {
  // The Figure 4 property on Restaurant-like data: terms whose pairs all
  // match (oracle score 1) must receive much higher ITER weight than terms
  // whose pairs never match (oracle score 0).
  Pipeline p(BenchmarkKind::kRestaurant, 0.2, 42);
  BipartiteGraph graph = BipartiteGraph::Build(p.data.dataset, p.pairs);
  IterResult iter =
      RunIter(graph, std::vector<double>(p.pairs.size(), 1.0)).value();
  auto oracle = OracleTermScores(graph, p.pairs, p.data.truth);
  double sum_disc = 0.0, sum_noise = 0.0;
  size_t n_disc = 0, n_noise = 0;
  for (TermId t = 0; t < graph.num_terms(); ++t) {
    if (graph.SetsOfTerm(t).empty()) continue;
    if (oracle[t] >= 1.0) {
      sum_disc += iter.term_weights[t];
      ++n_disc;
    } else if (oracle[t] <= 0.0) {
      sum_noise += iter.term_weights[t];
      ++n_noise;
    }
  }
  ASSERT_GT(n_disc, 0u);
  ASSERT_GT(n_noise, 0u);
  EXPECT_GT(sum_disc / n_disc, 5.0 * sum_noise / n_noise);
}

TEST(EndToEndTest, UniversalEtaWorksAcrossDomains) {
  // The paper's selling point: the same α=20, S=20, η=0.98 settings work
  // on all three domains with no tuning.
  for (auto kind : {BenchmarkKind::kRestaurant, BenchmarkKind::kPaper}) {
    Pipeline p(kind, 0.1, 7);
    FusionConfig config;  // defaults = the paper's universal settings
    config.rounds = 2;
    config.cliquerank.max_steps = 10;
    FusionPipeline fusion(p.data.dataset, config);
    FusionResult result = fusion.Run().value();
    double f1 =
        EvaluatePairPredictions(p.pairs, result.matches, p.labels, p.positives)
            .F1();
    EXPECT_GT(f1, 0.55) << BenchmarkName(kind);
  }
}

TEST(EndToEndTest, CsvRoundTripPreservesResolution) {
  Pipeline p(BenchmarkKind::kRestaurant, 0.08, 11);
  std::string path = "/tmp/gter_e2e_roundtrip.csv";
  ASSERT_TRUE(SaveDatasetCsv(path, p.data.dataset, p.data.truth).ok());
  auto loaded = LoadDatasetCsv(path, "reloaded", 1);
  ASSERT_TRUE(loaded.ok());
  const auto& [ds2, truth2] = loaded.value();
  EXPECT_EQ(ds2.size(), p.data.dataset.size());
  EXPECT_EQ(TotalPositives(ds2, truth2),
            TotalPositives(p.data.dataset, p.data.truth));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gter
