// Bibliography (Cora-style) citation clustering — the paper's third
// benchmark domain, featuring large entity cliques (a highly cited paper
// appears as hundreds of differently-formatted citation strings).
//
//   build/examples/citation_clustering [--scale 0.25]
//
// Resolves the citations into clusters, evaluates pairwise clustering
// quality, and shows the largest recovered cluster next to its truth.

#include <algorithm>
#include <cstdio>

#include "gter/gter.h"

int main(int argc, char** argv) {
  using namespace gter;
  FlagSet flags;
  flags.AddDouble("scale", 0.25, "dataset scale (1.0 = 1865 citations)");
  flags.AddInt("seed", 11, "generator seed");
  GTER_CHECK_OK(flags.Parse(argc, argv));

  auto generated = GenerateBenchmark(BenchmarkKind::kPaper,
                                     flags.GetDouble("scale"),
                                     static_cast<uint64_t>(flags.GetInt("seed")));
  Dataset& citations = generated.dataset;
  RemoveFrequentTerms(&citations);

  auto hist = generated.truth.ClusterSizeHistogram();
  size_t largest = hist.size() - 1;
  std::printf("%zu citations, %zu true entities, largest cluster %zu\n",
              citations.size(), generated.truth.num_entities(), largest);

  FusionConfig config;
  config.rounds = 3;
  FusionPipeline pipeline(citations, config);
  FusionResult result = pipeline.Run().value();

  // The paper's metric: per-pair decision quality.
  auto labels = LabelPairs(pipeline.pairs(), generated.truth);
  Confusion pairwise = EvaluatePairPredictions(
      pipeline.pairs(), result.matches, labels,
      TotalPositives(citations, generated.truth));
  std::printf("pair decisions: P %.3f / R %.3f / F1 %.3f\n",
              pairwise.Precision(), pairwise.Recall(), pairwise.F1());

  // The default endgame, the transitive closure of the decisions, turns
  // them into clusters. Note the amplification: every false link merges
  // two whole clusters, so closure metrics are always harsher than pair
  // metrics on clique-heavy data.
  ClusterEvaluation eval =
      EvaluateClustering(result.cluster_of, generated.truth);
  std::printf(
      "after closure:  pairwise P %.3f / R %.3f / F1 %.3f, ARI %.3f, "
      "%zu predicted clusters\n",
      eval.pairwise_precision, eval.pairwise_recall, eval.pairwise_f1,
      eval.adjusted_rand_index, eval.num_predicted_clusters);

  // Correlation clustering outvotes isolated false links instead of
  // propagating them — the recommended way to turn probabilities into
  // clusters on clique-heavy data.
  CorrelationClusteringResult corr =
      CorrelationCluster(citations.size(), pipeline.pairs(),
                         result.pair_probability)
          .value();
  ClusterEvaluation corr_eval =
      EvaluateClustering(corr.cluster_of, generated.truth);
  std::printf(
      "corr. cluster:  pairwise P %.3f / R %.3f / F1 %.3f, ARI %.3f, "
      "%zu predicted clusters\n",
      corr_eval.pairwise_precision, corr_eval.pairwise_recall,
      corr_eval.pairwise_f1, corr_eval.adjusted_rand_index,
      corr_eval.num_predicted_clusters);

  // Show a slice of the largest predicted cluster.
  std::vector<std::vector<RecordId>> predicted(citations.size());
  for (RecordId r = 0; r < citations.size(); ++r) {
    predicted[result.cluster_of[r]].push_back(r);
  }
  auto biggest = std::max_element(
      predicted.begin(), predicted.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::printf("\nlargest predicted cluster (%zu citations), first 5:\n",
              biggest->size());
  for (size_t i = 0; i < biggest->size() && i < 5; ++i) {
    std::printf("  %s\n", citations.record((*biggest)[i]).raw_text.c_str());
  }
  size_t same_truth = 0;
  for (RecordId r : *biggest) {
    if (generated.truth.entity_of(r) ==
        generated.truth.entity_of((*biggest)[0])) {
      ++same_truth;
    }
  }
  std::printf("  → %zu/%zu of them belong to the same true entity\n",
              same_truth, biggest->size());
  return 0;
}
