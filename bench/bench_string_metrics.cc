// String-metric comparison in the spirit of Cohen, Ravikumar & Fienberg
// (IJCAI 2003) — the paper's reference [15] motivating that "no single
// metric is suitable for all data sets": optimal-threshold F1 of each
// string metric on each benchmark, including the hybrid Monge–Elkan and
// SoftTFIDF metrics that won the original comparison.

#include <cmath>

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

/// Token lists and per-token IDF weights for SoftTFIDF.
struct TokenView {
  std::vector<std::vector<std::string>> tokens;
  std::vector<std::vector<double>> weights;
};

TokenView BuildTokens(const Dataset& dataset) {
  TokenView view;
  view.tokens.resize(dataset.size());
  view.weights.resize(dataset.size());
  std::vector<uint32_t> df = dataset.ComputeDocumentFrequencies();
  double n = static_cast<double>(dataset.size());
  for (const Record& rec : dataset.records()) {
    for (TermId t : rec.terms) {
      view.tokens[rec.id].push_back(dataset.vocabulary().TermOf(t));
      view.weights[rec.id].push_back(
          std::log((n + 1.0) / static_cast<double>(df[t])));
    }
  }
  return view;
}

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  std::printf(
      "String-metric comparison (optimal-threshold F1, scale=%.2f)\n",
      scale);
  Rule(70);
  std::printf("%-16s %14s %14s %14s\n", "Metric", "Restaurant", "Product",
              "Paper");
  Rule(70);

  struct Row {
    const char* name;
    double f1[3];
  };
  std::vector<Row> rows = {{"Jaccard", {0, 0, 0}},
                           {"TF-IDF cosine", {0, 0, 0}},
                           {"Levenshtein", {0, 0, 0}},
                           {"Monge-Elkan", {0, 0, 0}},
                           {"SoftTFIDF", {0, 0, 0}}};

  for (size_t d = 0; d < AllBenchmarks().size(); ++d) {
    Prepared p = Prepare(AllBenchmarks()[d], scale, seed, ctx);
    TokenView view = BuildTokens(p.dataset());

    JaccardScorer jaccard;
    rows[0].f1[d] = ScoreF1(p, jaccard.Score(p.dataset(), p.pairs));
    TfIdfScorer tfidf;
    rows[1].f1[d] = ScoreF1(p, tfidf.Score(p.dataset(), p.pairs));

    std::vector<double> lev(p.pairs.size()), me(p.pairs.size()),
        soft(p.pairs.size());
    for (PairId pid = 0; pid < p.pairs.size(); ++pid) {
      const RecordPair& rp = p.pairs.pair(pid);
      lev[pid] = LevenshteinSimilarity(p.dataset().record(rp.a).raw_text,
                                       p.dataset().record(rp.b).raw_text);
      me[pid] = MongeElkanSimilarity(view.tokens[rp.a], view.tokens[rp.b]);
      soft[pid] = SoftTfIdfSimilarity(view.tokens[rp.a], view.weights[rp.a],
                                      view.tokens[rp.b], view.weights[rp.b]);
    }
    rows[2].f1[d] = ScoreF1(p, lev);
    rows[3].f1[d] = ScoreF1(p, me);
    rows[4].f1[d] = ScoreF1(p, soft);
  }

  for (const Row& row : rows) {
    std::printf("%-16s %14.3f %14.3f %14.3f\n", row.name, row.f1[0],
                row.f1[1], row.f1[2]);
  }
  Rule(70);
  std::printf(
      "Thresholds are oracle-tuned per metric per dataset — the adaptivity\n"
      "problem ([3], [15]) the unsupervised fusion framework removes.\n");
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  // Levenshtein and Monge–Elkan are quadratic per pair; default to a
  // smaller slice than the table benches.
  double scale = flags.GetDouble("scale");
  if (scale == gter::bench::kDefaultScale) scale = 0.25;
  gter::bench::Run(scale, static_cast<uint64_t>(flags.GetInt("seed")),
                   metrics_scope.ctx());
  return 0;
}
