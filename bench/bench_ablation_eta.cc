// Ablation A5: sensitivity to the matching-probability threshold η. The
// paper's claim (§VI, §VII-C): because p(r_i, r_j) is a probability, a
// single near-1 threshold works across domains — unlike similarity
// thresholds, which need per-domain tuning. This sweep shows the F1
// plateau near η = 1 and how far each domain's optimum sits from the
// universal 0.98.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  const std::vector<double> etas = {0.5,  0.7,  0.9,  0.95,
                                    0.98, 0.99, 0.999};
  std::printf("Ablation A5: eta sweep (scale=%.2f)\n", scale);
  Rule(64);
  std::printf("%8s %14s %14s %14s\n", "eta", "Restaurant", "Product",
              "Paper");
  Rule(64);

  struct Corpus {
    Prepared p;
    std::vector<double> probability;
  };
  std::vector<Corpus> corpora;
  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    FusionConfig config;
    config.rounds = 3;
    FusionPipeline pipeline(p.dataset(), config, ctx);
    FusionResult result = pipeline.Run(ctx).value();
    corpora.push_back({std::move(p), std::move(result.pair_probability)});
  }

  for (double eta : etas) {
    std::printf("%8.3f", eta);
    for (const Corpus& corpus : corpora) {
      std::vector<bool> matches(corpus.p.pairs.size());
      for (PairId pid = 0; pid < corpus.p.pairs.size(); ++pid) {
        matches[pid] = corpus.probability[pid] >= eta;
      }
      std::printf(" %14.3f", DecisionF1(corpus.p, matches));
    }
    std::printf("\n");
  }
  Rule(64);
  // The tuning-free story in one number: distance between the universal
  // 0.98 and each domain's oracle-optimal threshold on p.
  std::printf("%8s", "best");
  for (const Corpus& corpus : corpora) {
    SweepResult sweep = BestF1Threshold(corpus.probability, corpus.p.labels,
                                        corpus.p.positives);
    std::printf("  %.3f@%.3f", sweep.f1, sweep.threshold);
  }
  std::printf("\n");
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
