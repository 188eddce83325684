// Ablation A3: the ITER weight-normalization variant — the paper's default
// logistic squash x ← 1/(1 + 1/x) vs the L2 alternative mentioned in §V-C.
// Reported: full-fusion F1 at the universal η and the round-1 optimal-
// threshold F1 of the raw ITER similarity.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  std::printf("Ablation A3: ITER normalization variants (scale=%.2f)\n",
              scale);
  Rule(76);
  std::printf("%-28s %14s %14s %14s\n", "Variant", "Restaurant", "Product",
              "Paper");
  Rule(76);

  for (IterNormalization norm :
       {IterNormalization::kLogistic, IterNormalization::kL2}) {
    const char* name =
        norm == IterNormalization::kLogistic ? "logistic" : "l2";
    std::vector<double> round1(AllBenchmarks().size());
    std::vector<double> fused(AllBenchmarks().size());
    for (size_t d = 0; d < AllBenchmarks().size(); ++d) {
      Prepared p = Prepare(AllBenchmarks()[d], scale, seed, ctx);
      BipartiteGraph graph = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
      IterOptions iter_options;
      iter_options.normalization = norm;
      IterResult iter =
          RunIter(graph, std::vector<double>(p.pairs.size(), 1.0),
                  iter_options, ctx)
              .value();
      round1[d] = ScoreF1(p, iter.pair_scores);

      FusionConfig config;
      config.iter.normalization = norm;
      config.rounds = 3;
      FusionPipeline pipeline(p.dataset(), config, ctx);
      fused[d] = DecisionF1(p, pipeline.Run(ctx).value().matches);
    }
    std::printf("%-28s %14.3f %14.3f %14.3f\n",
                (std::string(name) + " (ITER sweep-F1)").c_str(), round1[0],
                round1[1], round1[2]);
    std::printf("%-28s %14.3f %14.3f %14.3f\n",
                (std::string(name) + " (fusion eta-F1)").c_str(), fused[0],
                fused[1], fused[2]);
  }
  Rule(76);
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
