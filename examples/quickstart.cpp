// Quickstart: resolve a small restaurant catalog end to end with the
// unsupervised fusion framework.
//
//   build/examples/quickstart
//
// Walks the canonical pipeline: build a Dataset → remove frequent terms →
// run FusionPipeline (ITER ⇄ CliqueRank) → read matches and clusters.

#include <cstdio>

#include "gter/gter.h"

int main() {
  using namespace gter;

  // 1. A dataset is a collection of textual records. Here: a toy catalog
  //    where records 0/1 and 2/3 describe the same restaurants.
  Dataset dataset("toy-restaurants");
  dataset.AddRecord(0, "Golden Dragon Palace 435 Cienega Blvd 3102461501");
  dataset.AddRecord(0, "golden dragon palace, 435 cienega boulevard, 310-246-1501");
  dataset.AddRecord(0, "Blue Ocean Grill 97 Ocean Ave 3105550123");
  dataset.AddRecord(0, "blue ocean grill - 97 ocean avenue (310) 555-0123");
  dataset.AddRecord(0, "Luna Bistro 12 Main St 2125559876");
  dataset.AddRecord(0, "Casa Verona 88 Hill Rd 4155554321");

  // 2. Preprocessing: drop very frequent terms (domain stop words). The
  //    default ratio targets benchmark-sized corpora; on a toy catalog of
  //    six records we keep everything below 90% document frequency.
  PreprocessOptions preprocess;
  preprocess.max_df_ratio = 0.9;
  PreprocessStats stats = RemoveFrequentTerms(&dataset, preprocess);
  std::printf("preprocessing: kept %zu terms, removed %zu\n",
              stats.terms_kept, stats.terms_removed);

  // 3. The fusion framework with the paper's universal settings
  //    (alpha=20, S=20, eta=0.98, 5 reinforcement rounds).
  FusionConfig config;
  FusionPipeline pipeline(dataset, config);
  FusionResult result = pipeline.Run().value();

  // 4. Matching decisions come straight from the matching probability —
  //    no threshold tuning.
  std::printf("\ncandidate pairs and matching probabilities:\n");
  for (PairId p = 0; p < pipeline.pairs().size(); ++p) {
    const RecordPair& rp = pipeline.pairs().pair(p);
    std::printf("  (%u, %u)  p=%.3f  %s\n", rp.a, rp.b,
                result.pair_probability[p],
                result.matches[p] ? "MATCH" : "no");
  }

  // 5. The clustering endgame (by default the transitive closure of the
  //    matches) gives entity clusters.
  std::printf("\nclusters:\n");
  std::vector<std::vector<uint32_t>> clusters(result.num_clusters);
  for (RecordId r = 0; r < dataset.size(); ++r) {
    clusters[result.cluster_of[r]].push_back(r);
  }
  for (const auto& members : clusters) {
    if (members.empty()) continue;
    std::printf("  {");
    for (size_t i = 0; i < members.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", members[i]);
    }
    std::printf("}\n");
  }

  // 6. The learned term weights explain the decisions: discriminative
  //    terms (phone numbers) rank far above generic words.
  std::printf("\ntop terms by learned discrimination power:\n");
  std::vector<std::pair<double, TermId>> ranked;
  for (TermId t = 0; t < dataset.vocabulary().size(); ++t) {
    ranked.emplace_back(result.term_weights[t], t);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < 5 && i < ranked.size(); ++i) {
    std::printf("  x=%.3f  %s\n", ranked[i].first,
                dataset.vocabulary().TermOf(ranked[i].second).c_str());
  }
  return 0;
}
