// Ablation A2: the two rectified-walk refinements of §VI-B — the per-step
// bonus toward the target (the big-clique fix) and the early-stop rule.
// The boost toggle is evaluated through CliqueRank on every dataset; the
// early-stop toggle only exists in the Monte-Carlo RSS sampler and is
// evaluated there on the (small) Restaurant graph.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  std::printf("Ablation A2: walk refinements, F1 at eta=0.98 (scale=%.2f)\n",
              scale);
  Rule(64);
  std::printf("%-24s %12s %12s %12s\n", "CliqueRank variant", "Restaurant",
              "Product", "Paper");
  Rule(64);

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

  auto run_cliquerank = [&](bool boost, BoostMode mode) {
    for (const Corpus& corpus : corpora) {
      CliqueRankOptions options;
      options.use_boost = boost;
      options.boost_mode = mode;
      CliqueRankResult result =
          RunCliqueRank(corpus.graph, corpus.p.pairs, options, ctx).value();
      std::vector<bool> matches(corpus.p.pairs.size());
      for (PairId pid = 0; pid < corpus.p.pairs.size(); ++pid) {
        matches[pid] = result.pair_probability[pid] >= 0.98;
      }
      std::printf(" %12.3f", DecisionF1(corpus.p, matches));
    }
    std::printf("\n");
  };
  std::printf("%-24s", "boost (sampled b)");
  run_cliquerank(true, BoostMode::kSampled);
  std::printf("%-24s", "boost (expected b)");
  run_cliquerank(true, BoostMode::kExpected);
  std::printf("%-24s", "no boost");
  run_cliquerank(false, BoostMode::kSampled);
  Rule(64);

  // RSS grid on the Restaurant graph (small enough for full sampling).
  const Corpus& restaurant = corpora[0];
  std::printf("%-36s %12s\n", "RSS variant (Restaurant)", "F1");
  Rule(50);
  for (bool boost : {true, false}) {
    for (bool early_stop : {true, false}) {
      RssOptions options;
      options.use_boost = boost;
      options.early_stop = early_stop;
      options.num_walks = 100;
      auto probability =
          RunRss(restaurant.graph, restaurant.p.pairs, options, ctx).value();
      std::vector<bool> matches(restaurant.p.pairs.size());
      for (PairId pid = 0; pid < restaurant.p.pairs.size(); ++pid) {
        matches[pid] = probability[pid] >= 0.98;
      }
      std::printf("boost=%-5s early_stop=%-5s          %12.3f\n",
                  boost ? "on" : "off", early_stop ? "on" : "off",
                  DecisionF1(restaurant.p, matches));
    }
  }
  Rule(50);
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
