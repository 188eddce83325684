// Reproduces Table III: efficiency of ITER+CliqueRank — record-graph size,
// total running time for 5 reinforcement rounds, ITER-only time, and the
// speedup of the matrix CliqueRank over Monte-Carlo RSS.
//
// RSS cost is measured on a sample of the edges and extrapolated linearly
// (per-edge sampling is embarrassingly parallel and independent, so the
// extrapolation is exact in expectation); pass --full_rss to force the
// complete run.

#include <algorithm>

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, bool full_rss,
         const ExecContext& ctx) {
  std::printf("Table III: efficiency of ITER+CliqueRank (scale=%.2f)\n",
              scale);
  Rule(76);
  std::printf("%-34s %12s %12s %12s\n", "", "Restaurant", "Product", "Paper");
  Rule(76);

  struct Col {
    size_t nodes = 0, edges = 0;
    double total_s = 0, iter_s = 0, cliquerank_s = 0, rss_s = 0;
  };
  std::vector<Col> cols;

  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    Col col;
    col.nodes = p.dataset().size();
    col.edges = p.pairs.size();

    FusionConfig config;  // 5 rounds, α=20, S=20
    FusionPipeline pipeline(p.dataset(), config, ctx);
    FusionResult result = pipeline.Run(ctx).value();
    col.total_s = result.total_seconds;
    for (const FusionRoundStats& stats : result.round_stats) {
      col.iter_s += stats.iter_seconds;
      col.cliquerank_s += stats.probability_seconds;
    }

    // RSS on the same record graph (one pass; the fusion loop would run it
    // 5 times, so scale accordingly for the speedup figure).
    RecordGraph graph =
        RecordGraph::Build(p.dataset().size(), p.pairs, result.pair_scores);
    RssOptions rss_options;  // M=100 walks, S=20 — §VI-B defaults
    if (full_rss || p.pairs.size() <= 1500) {
      Stopwatch watch;
      RunRss(graph, p.pairs, rss_options, ctx).value();
      col.rss_s = watch.ElapsedSeconds() * 5;  // 5 fusion rounds
    } else {
      // Walks are per-edge independent, so a run with proportionally fewer
      // walks per edge measures the same total work scaled down — rescale
      // to the full M=100.
      RssOptions probe = rss_options;
      probe.num_walks = std::max<size_t>(
          2, rss_options.num_walks * 1500 / p.pairs.size());
      Stopwatch watch;
      RunRss(graph, p.pairs, probe, ctx).value();
      double fraction = static_cast<double>(probe.num_walks) /
                        static_cast<double>(rss_options.num_walks);
      col.rss_s = watch.ElapsedSeconds() / fraction * 5;
    }
    cols.push_back(col);
  }

  auto print_row = [&](const char* label, auto getter, const char* fmt) {
    std::printf("%-34s", label);
    for (const Col& col : cols) std::printf(fmt, getter(col));
    std::printf("\n");
  };
  print_row("Number of nodes in Gr",
            [](const Col& c) { return static_cast<double>(c.nodes); },
            " %12.0f");
  print_row("Number of edges in Gr",
            [](const Col& c) { return static_cast<double>(c.edges); },
            " %12.0f");
  print_row("Total running time (s)",
            [](const Col& c) { return c.total_s; }, " %12.2f");
  print_row("Running time for ITER (s)",
            [](const Col& c) { return c.iter_s; }, " %12.2f");
  print_row("CliqueRank time (s)",
            [](const Col& c) { return c.cliquerank_s; }, " %12.2f");
  print_row("RSS time, extrapolated (s)",
            [](const Col& c) { return c.rss_s; }, " %12.2f");
  print_row("Speedup vs RSS",
            [](const Col& c) {
              return c.cliquerank_s > 0 ? c.rss_s / c.cliquerank_s : 0.0;
            },
            " %11.1fx");
  Rule(76);
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  flags.AddBool("full_rss", false, "run RSS on every edge (slow)");
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(flags.GetDouble("scale"),
                   static_cast<uint64_t>(flags.GetInt("seed")),
                   flags.GetBool("full_rss"), metrics_scope.ctx());
  return 0;
}
