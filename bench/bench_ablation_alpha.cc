// Ablation A1: sensitivity to the non-linear transition exponent α
// (Eq. 11). The paper argues α must be "large enough to generate a
// dominating gap" and uses α=20 universally; this sweep shows F1 at the
// universal η across α, reproducing that reasoning: small α lets random
// walks leak across weak edges (precision collapses), large α saturates.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  const std::vector<double> alphas = {1, 2, 5, 10, 20, 40};
  std::printf("Ablation A1: alpha sweep, F1 at eta=0.98 (scale=%.2f)\n",
              scale);
  Rule(64);
  std::printf("%8s %14s %14s %14s\n", "alpha", "Restaurant", "Product",
              "Paper");
  Rule(64);

  // One prepared dataset + round-1 ITER per benchmark; CliqueRank reruns
  // per α on the same similarity graph.
  struct Corpus {
    Prepared p;
    RecordGraph graph;
  };
  std::vector<Corpus> corpora;
  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    BipartiteGraph bipartite = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
    IterResult iter =
        RunIter(bipartite, std::vector<double>(p.pairs.size(), 1.0), {}, ctx)
            .value();
    RecordGraph graph =
        RecordGraph::Build(p.dataset().size(), p.pairs, iter.pair_scores);
    corpora.push_back({std::move(p), std::move(graph)});
  }

  for (double alpha : alphas) {
    std::printf("%8.0f", alpha);
    for (const Corpus& corpus : corpora) {
      CliqueRankOptions options;
      options.alpha = alpha;
      CliqueRankResult result =
          RunCliqueRank(corpus.graph, corpus.p.pairs, options, ctx).value();
      std::vector<bool> matches(corpus.p.pairs.size());
      for (PairId pid = 0; pid < corpus.p.pairs.size(); ++pid) {
        matches[pid] = result.pair_probability[pid] >= 0.98;
      }
      std::printf(" %14.3f", DecisionF1(corpus.p, matches));
    }
    std::printf("\n");
  }
  Rule(64);
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(flags.GetDouble("scale"),
                   static_cast<uint64_t>(flags.GetInt("seed")),
                   metrics_scope.ctx());
  return 0;
}
