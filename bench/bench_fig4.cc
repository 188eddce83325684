// Reproduces Figure 4: visualization of the learned term weights. Terms
// are sorted by decreasing ITER weight x_t (x-axis = rank); the y-value is
// the oracle score(t). The paper's plots show score-1 terms clustered at
// the front and low-score terms at the tail. Output: a downsampled
// (rank, score) series per dataset plus an ASCII summary.

#include <algorithm>

#include "bench_util.h"

namespace gter {
namespace bench {
namespace {

void Run(double scale, uint64_t seed, size_t points,
         const ExecContext& ctx) {
  std::printf("Figure 4: oracle score(t) vs rank of learned weight "
              "(scale=%.2f)\n", scale);
  for (BenchmarkKind kind : AllBenchmarks()) {
    Prepared p = Prepare(kind, scale, seed, ctx);
    BipartiteGraph graph = BipartiteGraph::Build(p.dataset(), p.pairs, ctx);
    IterResult iter =
        RunIter(graph, std::vector<double>(p.pairs.size(), 1.0), {}, ctx)
            .value();
    auto oracle = OracleTermScores(graph, p.pairs, p.truth());

    struct Entry {
      double weight;
      double score;
    };
    std::vector<Entry> entries;
    for (TermId t = 0; t < graph.num_terms(); ++t) {
      if (graph.SetsOfTerm(t).empty()) continue;
      entries.push_back({iter.term_weights[t], oracle[t]});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.weight > b.weight;
              });

    std::printf("\n(%s) %zu ranked terms — series (rank, score):\n",
                BenchmarkName(kind).c_str(), entries.size());
    size_t step = std::max<size_t>(1, entries.size() / points);
    for (size_t i = 0; i < entries.size(); i += step) {
      std::printf("  %6zu %.3f\n", i + 1, entries[i].score);
    }
    // Summary statistic the figure conveys: mean oracle score in the front
    // decile vs the back decile of the learned ranking.
    size_t decile = std::max<size_t>(1, entries.size() / 10);
    double front = 0.0, back = 0.0;
    for (size_t i = 0; i < decile; ++i) front += entries[i].score;
    for (size_t i = entries.size() - decile; i < entries.size(); ++i) {
      back += entries[i].score;
    }
    std::printf("  mean score: front decile %.3f, back decile %.3f\n",
                front / decile, back / decile);
  }
}

}  // namespace
}  // namespace bench
}  // namespace gter

int main(int argc, char** argv) {
  gter::FlagSet flags;
  flags.AddInt("points", 40, "series points per dataset");
  if (!gter::bench::ParseStandardFlags(argc, argv, &flags)) return 1;
  gter::bench::BenchMetricsScope metrics_scope(flags);
  gter::bench::Run(flags.GetDouble("scale"),
                   static_cast<uint64_t>(flags.GetInt("seed")),
                   static_cast<size_t>(flags.GetInt("points")),
                   metrics_scope.ctx());
  return 0;
}
