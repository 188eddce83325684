// Reproduces Figure 5: convergence of ITER — the total amount of weight
// update Σ_t |Δx_t| per iteration for the first 20 iterations. The paper's
// plot shows a sharp early peak (random initialization) followed by fast
// convergence on all three datasets.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, size_t iterations,
         const ExecContext& ctx) {
  std::printf("Figure 5: convergence of ITER (scale=%.2f)\n", scale);

  std::vector<std::vector<double>> traces;
  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    BipartiteGraph graph = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
    IterOptions options;
    options.track_convergence = true;
    options.max_iterations = iterations;
    options.tolerance = 0.0;  // run all iterations for the full trace
    IterResult result =
        RunIter(graph, std::vector<double>(p.pairs.size(), 1.0), options, ctx)
            .value();
    traces.push_back(result.update_trace);
  }

  Rule(64);
  std::printf("%9s %14s %14s %14s\n", "Iteration", "Restaurant", "Product",
              "Paper");
  Rule(64);
  for (size_t i = 0; i < iterations; ++i) {
    std::printf("%9zu", i + 1);
    for (const auto& trace : traces) {
      if (i < trace.size()) {
        std::printf(" %14.4f", trace[i]);
      } else {
        std::printf(" %14s", "-");
      }
    }
    std::printf("\n");
  }
  Rule(64);
  for (size_t d = 0; d < traces.size(); ++d) {
    const auto& trace = traces[d];
    size_t peak = 0;
    for (size_t i = 1; i < trace.size(); ++i) {
      if (trace[i] > trace[peak]) peak = i;
    }
    std::printf("%s: peak update %.3f at iteration %zu, final %.2e\n",
                BenchmarkName(AllBenchmarks()[d]).c_str(), trace[peak],
                peak + 1, trace.back());
  }
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  flags.AddInt("iterations", 20, "ITER sweeps to trace");
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(flags.GetDouble("scale"),
                   static_cast<uint64_t>(flags.GetInt("seed")),
                   static_cast<size_t>(flags.GetInt("iterations")),
                   metrics_scope.ctx());
  return 0;
}
