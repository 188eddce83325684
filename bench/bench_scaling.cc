// Scaling study: the complexity claims of §V-C and §VI-C measured
// empirically — ITER's per-sweep cost is linear in the bipartite edge
// count; CliqueRank grows with the record-graph size (up to cubic for the
// dense engine); RSS is the cubic-times-samples baseline the paper
// replaces. Sweeps the Paper benchmark across scales.

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(uint64_t seed, const ExecContext& ctx) {
  const std::vector<double> scales = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::printf("Scaling on the Paper benchmark (per component)\n");
  Rule(92);
  std::printf("%7s %8s %12s %12s %14s %14s %14s\n", "scale", "records",
              "bip.edges", "Gr edges", "ITER sweep(ms)", "CliqueRank(s)",
              "RSS est.(s)");
  Rule(92);

  for (double scale : scales) {
    Prepared p = Prepare(BenchmarkKind::kPaper, scale, seed, ctx);
    BipartiteGraph bipartite = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);

    // One ITER sweep, timed.
    IterOptions iter_options;
    iter_options.max_iterations = 1;
    iter_options.tolerance = 0.0;
    std::vector<double> uniform(p.pairs.size(), 1.0);
    Stopwatch iter_watch;
    IterResult iter = RunIter(bipartite, uniform, iter_options, ctx).value();
    double iter_ms = iter_watch.ElapsedMillis();

    // Converged similarities for the graph stages.
    iter = RunIter(bipartite, uniform, {}, ctx).value();
    RecordGraph graph =
        RecordGraph::Build(p.dataset().size(), p.pairs, iter.pair_scores);

    Stopwatch cr_watch;
    RunCliqueRank(graph, p.pairs, {}, ctx).value();
    double cr_s = cr_watch.ElapsedSeconds();

    // RSS estimate from a reduced-walk probe (per-edge independent).
    RssOptions probe;
    probe.num_walks = 4;
    Stopwatch rss_watch;
    RunRss(graph, p.pairs, probe, ctx).value();
    double rss_s = rss_watch.ElapsedSeconds() * (100.0 / 4.0);

    std::printf("%7.2f %8zu %12zu %12zu %14.1f %14.2f %14.1f\n", scale,
                p.dataset().size(), bipartite.num_edges(), graph.num_edges(),
                iter_ms, cr_s, rss_s);
  }
  Rule(92);
  std::printf(
      "ITER per-sweep time should track bip.edges linearly; CliqueRank\n"
      "tracks the record-graph size (dense engine: n^3 per step).\n");
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(static_cast<uint64_t>(flags.GetInt("seed")),
                   metrics_scope.ctx());
  return 0;
}
