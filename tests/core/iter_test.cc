#include "gter/core/iter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iter_oracle.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/eval/spearman.h"
#include "gter/eval/term_score.h"

namespace gter {
namespace {

/// Two matching pairs anchored by discriminative terms, one frequent noise
/// term shared by everything.
struct Fixture {
  Dataset ds{"test"};
  GroundTruth truth;
  PairSpace pairs;
  BipartiteGraph graph;

  Fixture()
      : truth({0, 0, 1, 1, 2, 3}),
        pairs(BuildPairs()),
        graph(BipartiteGraph::Build(ds, pairs)) {}

  PairSpace BuildPairs() {
    ds.AddRecord(0, "anchor1 noise");      // 0 ┐ entity 0
    ds.AddRecord(0, "anchor1 noise");      // 1 ┘
    ds.AddRecord(0, "anchor2 noise");      // 2 ┐ entity 1
    ds.AddRecord(0, "anchor2 noise");      // 3 ┘
    ds.AddRecord(0, "noise misc1");        // 4   entity 2
    ds.AddRecord(0, "noise misc2");        // 5   entity 3
    return PairSpace::Build(ds);
  }
};

std::vector<double> UniformProbability(const PairSpace& pairs) {
  return std::vector<double>(pairs.size(), 1.0);
}

TEST(IterTest, ConvergesOnSmallGraph) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100u);
}

TEST(IterTest, DiscriminativeTermsOutweighNoise) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  double anchor1 = result.term_weights[f.ds.vocabulary().Lookup("anchor1")];
  double anchor2 = result.term_weights[f.ds.vocabulary().Lookup("anchor2")];
  double noise = result.term_weights[f.ds.vocabulary().Lookup("noise")];
  EXPECT_GT(anchor1, noise);
  EXPECT_GT(anchor2, noise);
}

TEST(IterTest, MatchingPairsScoreHigherThanNonMatching) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  double match_01 = result.pair_scores[f.pairs.Find(0, 1)];
  double match_23 = result.pair_scores[f.pairs.Find(2, 3)];
  double nonmatch = result.pair_scores[f.pairs.Find(0, 2)];
  EXPECT_GT(match_01, nonmatch);
  EXPECT_GT(match_23, nonmatch);
}

TEST(IterTest, WeightsLieInUnitIntervalUnderLogistic) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  for (double x : result.term_weights) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(IterTest, PairScoreIsSumOfSharedTermWeights) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  for (PairId p = 0; p < f.pairs.size(); ++p) {
    double expected = 0.0;
    for (TermId t : f.graph.TermsOfPair(p)) {
      expected += result.term_weights[t];
    }
    EXPECT_NEAR(result.pair_scores[p], expected, 1e-12);
  }
}

TEST(IterTest, DeterministicInSeed) {
  Fixture f;
  IterOptions options;
  options.seed = 99;
  IterResult a = RunIter(f.graph, UniformProbability(f.pairs), options).value();
  IterResult b = RunIter(f.graph, UniformProbability(f.pairs), options).value();
  EXPECT_EQ(a.term_weights, b.term_weights);
}

TEST(IterTest, ConvergesFromDifferentInitializations) {
  // The stationary point is the principal eigenvector (Theorem 1) — the
  // seed must not change where we land, only the path.
  Fixture f;
  IterOptions o1, o2;
  o1.seed = 1;
  o2.seed = 123456;
  o1.tolerance = o2.tolerance = 1e-12;
  IterResult a = RunIter(f.graph, UniformProbability(f.pairs), o1).value();
  IterResult b = RunIter(f.graph, UniformProbability(f.pairs), o2).value();
  for (size_t t = 0; t < a.term_weights.size(); ++t) {
    EXPECT_NEAR(a.term_weights[t], b.term_weights[t], 1e-6);
  }
}

TEST(IterTest, EdgeProbabilityDemotesPunishedTerms) {
  Fixture f;
  // Tell ITER the non-matching pairs (those not (0,1) or (2,3)) have
  // probability 0: noise-only pairs stop contributing to "noise".
  std::vector<double> probability(f.pairs.size(), 0.0);
  probability[f.pairs.Find(0, 1)] = 1.0;
  probability[f.pairs.Find(2, 3)] = 1.0;
  IterResult with_p = RunIter(f.graph, probability).value();
  IterResult uniform = RunIter(f.graph, UniformProbability(f.pairs)).value();
  TermId noise = f.ds.vocabulary().Lookup("noise");
  TermId anchor = f.ds.vocabulary().Lookup("anchor1");
  double ratio_with = with_p.term_weights[anchor] /
                      std::max(with_p.term_weights[noise], 1e-12);
  double ratio_uniform = uniform.term_weights[anchor] /
                         std::max(uniform.term_weights[noise], 1e-12);
  EXPECT_GT(ratio_with, ratio_uniform);
}

TEST(IterTest, TrackConvergenceRecordsDecreasingTail) {
  Fixture f;
  IterOptions options;
  options.track_convergence = true;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs), options).value();
  ASSERT_EQ(result.update_trace.size(), result.iterations);
  // The final update must be below tolerance (that is why it stopped).
  EXPECT_LT(result.update_trace.back(), options.tolerance);
  // And smaller than the peak update.
  double peak = *std::max_element(result.update_trace.begin(),
                                  result.update_trace.end());
  EXPECT_GT(peak, result.update_trace.back());
}

TEST(IterTest, L2NormalizationVariant) {
  Fixture f;
  IterOptions options;
  options.normalization = IterNormalization::kL2;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs), options).value();
  double norm_sq = 0.0;
  for (double x : result.term_weights) norm_sq += x * x;
  EXPECT_NEAR(norm_sq, 1.0, 1e-9);
  // The ranking must agree with the logistic variant.
  IterResult logistic = RunIter(f.graph, UniformProbability(f.pairs)).value();
  TermId anchor = f.ds.vocabulary().Lookup("anchor1");
  TermId noise = f.ds.vocabulary().Lookup("noise");
  EXPECT_GT(result.term_weights[anchor], result.term_weights[noise]);
  EXPECT_GT(logistic.term_weights[anchor], logistic.term_weights[noise]);
}

TEST(IterTest, LearnedRankingCorrelatesWithOracle) {
  Fixture f;
  IterResult result = RunIter(f.graph, UniformProbability(f.pairs)).value();
  auto oracle = OracleTermScores(f.graph, f.pairs, f.truth);
  // Restrict to terms that participate in some pair.
  std::vector<double> learned, truth_scores;
  for (TermId t = 0; t < f.graph.num_terms(); ++t) {
    if (!f.graph.SetsOfTerm(t).empty()) {
      learned.push_back(result.term_weights[t]);
      truth_scores.push_back(oracle[t]);
    }
  }
  EXPECT_GT(SpearmanRho(learned, truth_scores), 0.5);
}

// The largest |a_i − b_i| / max(1, |b_i|) over two equal-length vectors.
double MaxRelativeDiff(const std::vector<double>& a,
                       const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    worst = std::max(worst,
                     std::fabs(a[i] - b[i]) / std::max(1.0, std::fabs(b[i])));
  }
  return worst;
}

// RunIter against the per-pair oracle under both normalizations, uniform
// and uneven (partly zero) edge probability, the default tolerance and the
// fusion cap (100 sweeps, tolerance 0). The set sweep adds a term's
// products in set order, so it holds DESIGN.md §4's tolerance instead of
// bitwise equality: weights and scores within 1e-12 and the Σ|Δx| trace
// within 1e-11 (relative above 1, absolute below), with the same sweep
// count. A run handed a 4-thread pool gives the serial run bit for bit.
void ExpectMatchesOracle(const BipartiteGraph& graph) {
  constexpr double kOracleTolerance = 1e-12;
  constexpr double kTraceTolerance = 1e-11;
  ThreadPool pool(4);
  const std::vector<double> uniform(graph.num_pairs(), 1.0);
  const std::vector<double> uneven = [&] {
    Rng rng(17);
    std::vector<double> prob(graph.num_pairs());
    for (double& p : prob) {
      p = rng.UniformDouble() < 0.2 ? 0.0 : rng.UniformDouble();
    }
    return prob;
  }();
  for (IterNormalization norm :
       {IterNormalization::kLogistic, IterNormalization::kL2}) {
    for (const std::vector<double>* prob : {&uniform, &uneven}) {
      for (double tolerance : {1e-7, 0.0}) {
        SCOPED_TRACE(
            std::string(norm == IterNormalization::kL2 ? "l2" : "logistic") +
            (prob == &uniform ? " uniform" : " uneven") + " tolerance " +
            std::to_string(tolerance));
        IterOptions options;
        options.normalization = norm;
        options.tolerance = tolerance;
        options.track_convergence = true;
        const IterResult want = IterOracle(graph, *prob, options);
        const IterResult got = RunIter(graph, *prob, options).value();
        EXPECT_LE(MaxRelativeDiff(got.term_weights, want.term_weights),
                  kOracleTolerance);
        EXPECT_LE(MaxRelativeDiff(got.pair_scores, want.pair_scores),
                  kOracleTolerance);
        EXPECT_LE(MaxRelativeDiff(got.update_trace, want.update_trace),
                  kTraceTolerance);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);

        const IterResult pooled =
            RunIter(graph, *prob, options, ExecContext::WithPool(&pool))
                .value();
        EXPECT_EQ(pooled.term_weights, got.term_weights);
        EXPECT_EQ(pooled.pair_scores, got.pair_scores);
        EXPECT_EQ(pooled.iterations, got.iterations);
        EXPECT_EQ(pooled.update_trace, got.update_trace);
      }
    }
  }
}

// Six groups of twelve records: a group's records share its three words,
// a third of all records share one of three words across groups, and a
// word per record is unique. So most pairs share one of a few multi-term
// sets, and the cross-group pairs share one term.
TEST(IterOracleTest, RepeatedMultiTermSetsMatchPerPairSweep) {
  Dataset ds("sets");
  for (int r = 0; r < 72; ++r) {
    const std::string g = std::to_string(r / 12);
    std::string text =
        "g" + g + "a g" + g + "b g" + g + "c u" + std::to_string(r);
    if (r % 3 == 0) text += " common" + std::to_string(r % 9);
    ds.AddRecord(0, text);
  }
  const PairSpace pairs = PairSpace::Build(ds);
  const BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  std::map<std::vector<TermId>, size_t> uses;
  for (PairId p = 0; p < graph.num_pairs(); ++p) {
    const auto terms = graph.TermsOfPair(p);
    ++uses[std::vector<TermId>(terms.begin(), terms.end())];
  }
  size_t shared_multi_term_sets = 0;
  for (const auto& [terms, count] : uses) {
    shared_multi_term_sets += terms.size() > 1 && count >= 10;
  }
  ASSERT_GE(shared_multi_term_sets, 6u);
  ASSERT_LT(uses.size(), graph.num_pairs() / 10);
  ExpectMatchesOracle(graph);
}

TEST(IterOracleTest, PaperCorpusMatchesPerPairSweep) {
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.1, 11);
  RemoveFrequentTerms(&data.dataset);
  const PairSpace pairs = PairSpace::Build(data.dataset);
  const BipartiteGraph graph = BipartiteGraph::Build(data.dataset, pairs);
  ASSERT_GT(graph.num_pairs(), 1000u);
  ExpectMatchesOracle(graph);
}

// RunIterDirty keeps nothing but marks between calls: a converge over a
// partial frontier reads the other sets' scores from `pair_scores`, so a
// fresh scratch gives bit for bit what the earlier converges' scratch
// gives, and on exit every pair's score is the sum of its terms.
TEST(IterDirtyTest, PartialFrontierNeedsOnlyThePairScores) {
  // Restaurant's entities are small, so a perturbation stays in a few
  // terms and the converge runs on its worklist.
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.5, 11);
  RemoveFrequentTerms(&data.dataset);
  const PairSpace pairs = PairSpace::Build(data.dataset);
  const BipartiteGraph graph = BipartiteGraph::Build(data.dataset, pairs);
  std::vector<TermId> all(graph.num_terms());
  std::iota(all.begin(), all.end(), 0);
  std::vector<double> x(graph.num_terms(), 0.5);
  std::vector<double> s(graph.num_pairs(), 0.0);
  IterDirtyScratch kept;
  ASSERT_TRUE(RunIterDirty(graph, all, &x, &s, &kept).value().converged);

  // Knock a few terms off the fixed point and re-converge from them.
  std::vector<TermId> dirty;
  for (TermId t = 0; t < graph.num_terms() && dirty.size() < 5; t += 7) {
    if (graph.SetsOfTerm(t).empty()) continue;
    x[t] *= 0.5;
    dirty.push_back(t);
  }
  std::vector<double> x_fresh = x;
  std::vector<double> s_fresh = s;
  IterDirtyScratch fresh;
  const IterDirtyResult a = RunIterDirty(graph, dirty, &x, &s, &kept).value();
  const IterDirtyResult b =
      RunIterDirty(graph, dirty, &x_fresh, &s_fresh, &fresh).value();
  EXPECT_TRUE(a.converged);
  EXPECT_FALSE(a.used_full_resweep);
  EXPECT_EQ(b.sweeps, a.sweeps);
  EXPECT_EQ(b.touched_pairs, a.touched_pairs);
  EXPECT_EQ(x_fresh, x);
  EXPECT_EQ(s_fresh, s);
  for (PairId p = 0; p < graph.num_pairs(); ++p) {
    double sum = 0.0;
    for (TermId t : graph.TermsOfPair(p)) sum += x[t];
    ASSERT_EQ(s[p], sum) << "pair " << p;
  }
}

TEST(IterDeathTest, WrongProbabilitySizeAborts) {
  Fixture f;
  EXPECT_DEATH(RunIter(f.graph, {1.0}), "GTER_CHECK");
}

}  // namespace
}  // namespace gter
