// Reproduces Table V: the reinforcement effect — F1 (at the universal
// η = 0.98) and cumulative running time after each ITER⇄CliqueRank round.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, size_t rounds,
         const ExecContext& ctx) {
  std::printf("Table V: effect of reinforcement (scale=%.2f, eta=0.98)\n",
              scale);
  Rule(76);
  std::printf("%9s | %10s %8s | %10s %8s | %10s %8s\n", "", "Restaurant", "",
              "Product", "", "Paper", "");
  std::printf("%9s | %10s %8s | %10s %8s | %10s %8s\n", "Iteration", "F1",
              "Time(s)", "F1", "Time(s)", "F1", "Time(s)");
  Rule(76);

  std::vector<std::vector<double>> f1(AllBenchmarks().size());
  std::vector<std::vector<double>> time_s(AllBenchmarks().size());
  for (size_t d = 0; d < AllBenchmarks().size(); ++d) {
    Prepared p = Prepare(AllBenchmarks()[d], scale, seed, ctx);
    FusionConfig config;
    config.rounds = rounds;
    FusionPipeline pipeline(p.dataset(), config, ctx);
    pipeline.set_round_observer(
        [&](size_t, const FusionResult& snapshot) {
          std::vector<bool> matches(p.pairs.size());
          for (PairId pid = 0; pid < p.pairs.size(); ++pid) {
            matches[pid] = snapshot.pair_probability[pid] >= config.eta;
          }
          f1[d].push_back(DecisionF1(p, matches));
          time_s[d].push_back(
              snapshot.round_stats.back().cumulative_seconds);
        });
    pipeline.Run(ctx).value();
  }

  for (size_t r = 0; r < rounds; ++r) {
    std::printf("%9zu | %10.3f %8.2f | %10.3f %8.2f | %10.3f %8.2f\n", r + 1,
                f1[0][r], time_s[0][r], f1[1][r], time_s[1][r], f1[2][r],
                time_s[2][r]);
  }
  Rule(76);
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  flags.AddInt("rounds", 5, "reinforcement rounds");
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  if (gter::Status s = gter::RequirePositiveFlags(flags, {"rounds"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(flags.GetDouble("scale"),
                   static_cast<uint64_t>(flags.GetInt("seed")),
                   static_cast<size_t>(flags.GetInt("rounds")),
                   metrics_scope.ctx());
  return 0;
}
