#include "gter/core/rss.h"

#include <algorithm>
#include <cmath>

#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {
namespace {

/// Per-node powered edge weights (w/rowmax)^α plus their sum, precomputed
/// once so each walk step is O(deg) without pow() calls.
struct PoweredRows {
  std::vector<std::vector<double>> powered;  // per node, parallel to Neighbors
  std::vector<double> row_sum;
};

PoweredRows PrecomputeRows(const RecordGraph& graph, double alpha,
                           const ExecContext& ctx) {
  PoweredRows rows;
  rows.powered.resize(graph.num_nodes());
  rows.row_sum.resize(graph.num_nodes(), 0.0);
  ParallelFor(ctx, 0, graph.num_nodes(), /*grain=*/64,
              [&](size_t lo, size_t hi) {
    for (RecordId r = lo; r < hi; ++r) {
      auto wts = graph.Weights(r);
      auto& out = rows.powered[r];
      out.resize(wts.size());
      double row_max = 0.0;
      for (double w : wts) row_max = std::max(row_max, w);
      if (row_max <= 0.0) {
        // Degenerate node: uniform transitions.
        std::fill(out.begin(), out.end(), 1.0);
        rows.row_sum[r] = static_cast<double>(out.size());
        continue;
      }
      double sum = 0.0;
      for (size_t k = 0; k < wts.size(); ++k) {
        out[k] = std::pow(wts[k] / row_max, alpha);
        sum += out[k];
      }
      rows.row_sum[r] = sum;
    }
  });
  return rows;
}

/// Per-chunk walk statistics, accumulated lock-free and merged into the
/// registry once per chunk. Collected only when a registry is in play.
struct WalkStats {
  uint64_t walks = 0;
  uint64_t early_stops = 0;
  uint64_t target_hits = 0;
  Histogram steps;
};

/// One rectified walk from `start` toward `target` (Algorithm 3).
/// Returns 1 on reaching the target within S steps, 0 otherwise.
/// `stats` (nullable) records the walk's step count and outcome.
int RandomWalk(const RecordGraph& graph, const PoweredRows& rows,
               RecordId start, RecordId target, const RssOptions& options,
               Rng* rng, WalkStats* stats) {
  int hit = 0;
  bool early = false;
  size_t steps_taken = options.max_steps;
  RecordId cur = start;
  for (size_t step = 0; step < options.max_steps; ++step) {
    auto neigh = graph.Neighbors(cur);
    if (neigh.empty()) {
      steps_taken = step;
      break;
    }
    const auto& powered = rows.powered[cur];
    double total = rows.row_sum[cur];
    // Lines 3–4: boost the edge toward the target, when present.
    int64_t target_idx = -1;
    double boosted = 0.0;
    if (options.use_boost) {
      auto it = std::lower_bound(neigh.begin(), neigh.end(), target);
      if (it != neigh.end() && *it == target) {
        target_idx = it - neigh.begin();
        double b = rng->OpenUniformDouble();
        boosted = std::pow(1.0 + b, options.alpha) * powered[target_idx];
        total = total - powered[target_idx] + boosted;
      }
    }
    // Line 5: sample the next node from the boosted distribution.
    double u = rng->UniformDouble() * total;
    RecordId next = neigh.back();
    double acc = 0.0;
    for (size_t k = 0; k < neigh.size(); ++k) {
      double w = (static_cast<int64_t>(k) == target_idx) ? boosted : powered[k];
      acc += w;
      if (u < acc) {
        next = neigh[k];
        break;
      }
    }
    if (next == target) {  // lines 6–7
      hit = 1;
      steps_taken = step + 1;
      break;
    }
    if (options.early_stop && !graph.HasEdge(next, target)) {
      // Lines 8–9: walked out of the target's clique.
      early = true;
      steps_taken = step + 1;
      break;
    }
    cur = next;
  }
  if (stats != nullptr) {
    ++stats->walks;
    stats->early_stops += early ? 1 : 0;
    stats->target_hits += hit;
    stats->steps.Observe(static_cast<double>(steps_taken));
  }
  return hit;
}

}  // namespace

Result<std::vector<double>> RunRss(const RecordGraph& graph,
                                   const PairSpace& pairs,
                                   const RssOptions& options,
                                   const ExecContext& ctx) {
  GTER_CHECK(options.num_walks >= 2);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "rss/total");
  PoweredRows rows = PrecomputeRows(graph, options.alpha, ctx);
  std::vector<double> probability(pairs.size(), 0.0);
  const Rng master(options.seed);
  // Odd walk counts give the extra walk to the forward direction; every
  // requested walk runs and the estimate is normalized by the true count.
  const size_t forward = (options.num_walks + 1) / 2;
  const size_t backward = options.num_walks - forward;
  // Each pair forks its own RNG stream off the (const, shared) master and
  // writes only probability[p], so chunks are independent and the result is
  // bit-identical for any thread count.
  ParallelFor(ctx, 0, pairs.size(), options.grain,
              [&](size_t lo, size_t hi) {
    ScopedTraceSpan chunk_span(
        ctx.trace, "rss/chunk", "rss",
        TraceArg{"pairs", static_cast<double>(hi - lo)});
    // Walk stats accumulate per chunk (no locks in the walk loop) and
    // merge once at chunk end; with no registry nothing is collected.
    WalkStats chunk_stats;
    WalkStats* stats = ctx.metrics != nullptr ? &chunk_stats : nullptr;
    for (PairId p = lo; p < hi; ++p) {
      // Each pair is num_walks × max_steps of walking, so poll here: with
      // no token this is one pointer test; a tripped token abandons the
      // rest of the chunk (reported after the join).
      if (ctx.cancelled()) break;
      const RecordPair& rp = pairs.pair(p);
      Rng rng = master.Fork(p);
      size_t successes = 0;
      for (size_t m = 0; m < forward; ++m) {
        successes += RandomWalk(graph, rows, rp.a, rp.b, options, &rng, stats);
      }
      for (size_t m = 0; m < backward; ++m) {
        successes += RandomWalk(graph, rows, rp.b, rp.a, options, &rng, stats);
      }
      probability[p] = static_cast<double>(successes) /
                       static_cast<double>(options.num_walks);
    }
    if (ctx.metrics != nullptr) {
      ctx.metrics->AddCounter("rss/walks_run", chunk_stats.walks);
      ctx.metrics->AddCounter("rss/early_stops", chunk_stats.early_stops);
      ctx.metrics->AddCounter("rss/target_hits", chunk_stats.target_hits);
      ctx.metrics->MergeHistogram("rss/steps_per_walk", chunk_stats.steps);
    }
  });
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  return probability;
}

}  // namespace gter
