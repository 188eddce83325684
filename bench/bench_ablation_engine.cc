// Ablation A4: the two CliqueRank engines — the dense engine's panel
// kernel (an n×n column-panel scratch, every multiply-add a vector lane)
// vs the masked-sparse CSR gather. Both compute the same recurrence in the
// same summation order; this bench verifies their outputs agree bit for
// bit and shows where each wins as graph density varies: first on the
// three corpora, then on the Paper record graph thinned at random to a
// sweep of densities (same records and similarities, fewer edges).

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, const ExecContext& ctx) {
  std::printf(
      "Ablation A4: dense vs masked-sparse CliqueRank engines (scale=%.2f)\n",
      scale);
  Rule(86);
  std::printf("%-12s %8s %10s %10s %12s %12s %12s\n", "Dataset", "nodes",
              "edges", "density", "dense (s)", "masked (s)", "max |diff|");
  Rule(86);

  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    BipartiteGraph bipartite = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
    IterResult iter =
        RunIter(bipartite, std::vector<double>(p.pairs.size(), 1.0), {}, ctx)
            .value();
    RecordGraph graph =
        RecordGraph::Build(p.dataset().size(), p.pairs, iter.pair_scores);

    CliqueRankOptions dense_options;
    dense_options.engine = CliqueRankEngine::kDense;
    CliqueRankOptions masked_options;
    masked_options.engine = CliqueRankEngine::kMaskedSparse;

    CliqueRankResult dense =
        RunCliqueRank(graph, p.pairs, dense_options, ctx).value();
    CliqueRankResult masked =
        RunCliqueRank(graph, p.pairs, masked_options, ctx).value();

    double max_diff = 0.0;
    for (PairId pid = 0; pid < p.pairs.size(); ++pid) {
      max_diff = std::max(max_diff,
                          std::fabs(dense.pair_probability[pid] -
                                    masked.pair_probability[pid]));
    }
    std::printf("%-12s %8zu %10zu %10.4f %12.3f %12.3f %12.2e\n",
                BenchmarkName(kind).c_str(), graph.num_nodes(),
                graph.num_edges(), graph.Density(), dense.seconds,
                masked.seconds, max_diff);
  }
  Rule(86);
  std::printf(
      "The kAuto engine picks masked-sparse below density %.2f and dense "
      "above.\n\n",
      kDenseDensityThreshold);
}

// Seconds of the faster of three runs of one engine.
double BestSeconds(const RecordGraph& graph, const PairSpace& pairs,
                   CliqueRankEngine engine, const ExecContext& ctx) {
  CliqueRankOptions options;
  options.engine = engine;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double s =
        RunCliqueRank(graph, pairs, options, ctx).value().seconds;
    best = rep == 0 ? s : std::min(best, s);
  }
  return best;
}

void Crossover(double scale, uint64_t seed, const ExecContext& ctx) {
  Prepared p = Prepare(BenchmarkKind::kPaper, scale, seed, ctx);
  BipartiteGraph bipartite = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
  IterResult iter =
      RunIter(bipartite, std::vector<double>(p.pairs.size(), 1.0), {}, ctx)
          .value();
  const size_t n = p.dataset().size();
  const double full =
      RecordGraph::Build(n, p.pairs, iter.pair_scores).Density();
  Rng rng(seed);
  std::vector<double> draw(p.pairs.size());
  for (double& d : draw) d = rng.UniformDouble();

  std::printf("Crossover: Paper record graph thinned to each density "
              "(best of 3 runs per engine)\n");
  Rule(62);
  std::printf("%10s %10s %12s %12s %14s\n", "density", "edges", "dense (s)",
              "masked (s)", "masked/dense");
  Rule(62);
  for (double target : {0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}) {
    if (target > full) continue;
    const double keep = target / full;
    std::vector<RecordPair> kept;
    for (PairId pid = 0; pid < p.pairs.size(); ++pid) {
      if (draw[pid] < keep) kept.push_back(p.pairs.pair(pid));
    }
    PairSpace thin = PairSpace::FromPairs(kept, ctx);
    std::vector<double> sims(thin.size());
    for (PairId pid = 0; pid < p.pairs.size(); ++pid) {
      if (draw[pid] >= keep) continue;
      const RecordPair& rp = p.pairs.pair(pid);
      sims[thin.Find(rp.a, rp.b)] = iter.pair_scores[pid];
    }
    RecordGraph graph = RecordGraph::Build(n, thin, sims);
    const double dense =
        BestSeconds(graph, thin, CliqueRankEngine::kDense, ctx);
    const double masked =
        BestSeconds(graph, thin, CliqueRankEngine::kMaskedSparse, ctx);
    std::printf("%10.4f %10zu %12.3f %12.3f %14.2f%s\n", graph.Density(),
                graph.num_edges(), dense, masked, masked / dense,
                graph.IsBipartite() ? "  (bipartite: no product runs)" : "");
  }
  Rule(62);
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  const double scale = flags.GetDouble("scale");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const gter::ExecContext& ctx = metrics_scope.ctx();
  gter::bench::Run(scale, seed, ctx);
  gter::bench::Crossover(scale, seed, ctx);
  return 0;
}
