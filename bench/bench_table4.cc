// Reproduces Table IV: Spearman's rank correlation between the learned
// term ranking and the oracle score(t) ranking (§VII-E), for the PageRank
// term salience and for ITER's discrimination power. Both the round-1 ITER
// ranking (uniform p) and the post-fusion ranking are reported.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  std::printf(
      "Table IV: Spearman's rank correlation with oracle score(t) "
      "(scale=%.2f)\n",
      scale);
  Rule(70);
  std::printf("%-22s %12s %12s %12s\n", "", "Restaurant", "Product", "Paper");
  Rule(70);

  std::vector<double> rho_pagerank, rho_iter, rho_fused;
  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    BipartiteGraph graph = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
    IterResult iter =
        RunIter(graph, std::vector<double>(p.pairs.size(), 1.0), {}, ctx)
            .value();
    FusionConfig config;
    config.rounds = 3;
    FusionPipeline pipeline(p.dataset(), config, ctx);
    FusionResult fused = pipeline.Run(ctx).value();
    TwIdfPageRankScorer pagerank;
    pagerank.Score(p.dataset(), p.pairs);
    auto oracle = OracleTermScores(graph, p.pairs, p.truth());

    std::vector<double> iw, fw, pw, ow;
    for (TermId t = 0; t < graph.num_terms(); ++t) {
      if (graph.SetsOfTerm(t).empty()) continue;
      iw.push_back(iter.term_weights[t]);
      fw.push_back(fused.term_weights[t]);
      pw.push_back(pagerank.term_salience()[t]);
      ow.push_back(oracle[t]);
    }
    rho_pagerank.push_back(SpearmanRho(pw, ow));
    rho_iter.push_back(SpearmanRho(iw, ow));
    rho_fused.push_back(SpearmanRho(fw, ow));
  }

  std::printf("%-22s %12.2f %12.2f %12.2f\n", "PageRank", rho_pagerank[0],
              rho_pagerank[1], rho_pagerank[2]);
  std::printf("%-22s %12.2f %12.2f %12.2f\n", "ITER (round 1)", rho_iter[0],
              rho_iter[1], rho_iter[2]);
  std::printf("%-22s %12.2f %12.2f %12.2f\n", "ITER (after fusion)",
              rho_fused[0], rho_fused[1], rho_fused[2]);
  Rule(70);
  std::printf(
      "Note: the synthetic Restaurant oracle is nearly all ties (score 0 or "
      "1),\nwhich deflates rank correlations there; see EXPERIMENTS.md.\n");
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
