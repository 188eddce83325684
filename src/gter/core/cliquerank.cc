#include "gter/core/cliquerank.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"
#include "gter/common/timer.h"
#include "gter/matrix/masked_multiply.h"

namespace gter {
namespace {

// The recurrence on the edge pattern, shared by both engines: the iterate,
// the accumulator and the read-out of p live in value arrays parallel to
// the pattern's CSR values, and only the per-step product differs. The
// two products are bit-identical (masked_multiply.h), so the engine
// choice decides speed and memory, never p.
Result<std::vector<double>> RunSteps(const CliqueRankSetup& setup,
                                     CliqueRankEngine engine, size_t steps,
                                     const PairSpace& pairs,
                                     MetricsRegistry* metrics,
                                     TraceRecorder* recorder,
                                     const ExecContext& ctx) {
  const CsrMatrix& trans = setup.transition;
  const CsrMatrix& pattern = setup.pattern;
  const size_t n = pattern.rows();
  const bool dense = engine == CliqueRankEngine::kDense;
  std::vector<double> cur = setup.boosted;
  std::vector<double> accum = cur;
  std::vector<double> next(cur.size(), 0.0);
  // The dense engine's only dense state, made only when a product runs.
  std::optional<PanelScratch> scratch;
  if (dense && steps > 1) scratch.emplace(n);
  if (metrics != nullptr) {
    // cur/accum/next on the edge pattern plus the product's own buffer:
    // the panel scratch, or the CSR kernel's O(n) per-chunk accumulator.
    const size_t product_bytes =
        dense ? (scratch ? scratch->bytes() : 0) : n * sizeof(double);
    metrics->SetGauge(
        "cliquerank/scratch_bytes",
        static_cast<double>(3 * pattern.nnz() * sizeof(double) +
                            product_bytes));
  }
  for (size_t step = 2; step <= steps; ++step) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    {
      ScopedTimer product_timer(
          metrics, recorder,
          dense ? "cliquerank/dense_product" : "cliquerank/masked_product",
          TraceArg{"step", static_cast<double>(step)});
      GTER_RETURN_IF_ERROR(
          dense ? ComputeMaskedProductPanels(trans, cur.data(), pattern,
                                             &*scratch, next.data(), ctx)
                : ComputeMaskedProductCsr(trans, cur.data(), pattern,
                                          next.data(), ctx));
    }
    cur.swap(next);
    ParallelFor(ctx.pool, 0, cur.size(), /*grain=*/4096,
                [&](size_t lo, size_t hi) {
      for (size_t e = lo; e < hi; ++e) accum[e] += cur[e];
    });
  }

  std::vector<double> probability(pairs.size(), 0.0);
  ParallelFor(ctx.pool, 0, pairs.size(), /*grain=*/256,
              [&](size_t lo, size_t hi) {
    for (PairId p = lo; p < hi; ++p) {
      const RecordPair& rp = pairs.pair(p);
      int64_t pos_ab = pattern.PositionOf(rp.a, rp.b);
      int64_t pos_ba = pattern.PositionOf(rp.b, rp.a);
      GTER_CHECK(pos_ab >= 0 && pos_ba >= 0);
      double avg = (accum[static_cast<size_t>(pos_ab)] +
                    accum[static_cast<size_t>(pos_ba)]) /
                   2.0;
      probability[p] = std::clamp(avg, 0.0, 1.0);
    }
  });
  return probability;
}

}  // namespace

CliqueRankSetup TransitionAndBoost(const RecordGraph& graph,
                                   const CliqueRankOptions& options) {
  CliqueRankSetup setup;
  setup.pattern = graph.AdjacencyMatrix();
  // A structural copy of the pattern whose values are overwritten row by
  // row below; rows are visited in CSR order, so the sampled bonuses are
  // drawn in CSR value order.
  setup.transition = setup.pattern;
  setup.boosted.resize(setup.transition.nnz());
  Rng rng(options.seed);
  double expected_boost = 0.0;
  if (options.use_boost && options.boost_mode == BoostMode::kExpected) {
    // E[(1+b)^α] for b ~ U(0,1) = (2^{α+1} − 1) / (α + 1).
    expected_boost =
        (std::pow(2.0, options.alpha + 1.0) - 1.0) / (options.alpha + 1.0);
  }
  for (RecordId r = 0; r < graph.num_nodes(); ++r) {
    auto wts = graph.Weights(r);
    if (wts.empty()) continue;
    std::span<double> tv = setup.transition.MutableRowValues(r);
    double* bv = setup.boosted.data() + setup.transition.RowStart(r);
    double row_max = 0.0;
    for (double w : wts) row_max = std::max(row_max, w);
    if (row_max <= 0.0) {
      // Degenerate row: all similarities zero → uniform transitions.
      const double uniform = 1.0 / static_cast<double>(wts.size());
      for (size_t k = 0; k < wts.size(); ++k) tv[k] = uniform;
    } else {
      double denom = 0.0;
      for (size_t k = 0; k < wts.size(); ++k) {
        tv[k] = std::pow(wts[k] / row_max, options.alpha);
        denom += tv[k];
      }
      for (size_t k = 0; k < wts.size(); ++k) tv[k] /= denom;
    }
    for (size_t k = 0; k < wts.size(); ++k) {
      double t = tv[k];
      if (options.use_boost && t > 0.0) {
        double boost = expected_boost;
        if (options.boost_mode == BoostMode::kSampled) {
          boost = std::pow(1.0 + rng.OpenUniformDouble(), options.alpha);
        }
        t = boost * t / (1.0 - t + boost * t);
      }
      bv[k] = t;
    }
  }
  return setup;
}

Result<CliqueRankResult> RunCliqueRank(const RecordGraph& graph,
                                       const PairSpace& pairs,
                                       const CliqueRankOptions& options,
                                       const ExecContext& ctx) {
  GTER_CHECK(options.max_steps >= 1);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  TraceRecorder* recorder = ctx.trace_or_ambient();
  ScopedTimer total_timer(metrics, recorder, "cliquerank/total");
  Stopwatch watch;
  CliqueRankSetup setup;
  {
    ScopedTimer setup_timer(metrics, recorder, "cliquerank/setup");
    setup = TransitionAndBoost(graph, options);
  }

  CliqueRankEngine engine = options.engine;
  if (engine == CliqueRankEngine::kAuto) {
    engine = graph.Density() >= options.dense_density_threshold
                 ? CliqueRankEngine::kDense
                 : CliqueRankEngine::kMaskedSparse;
  }
  // On an edge (i,j), step s ≥ 2 sums M_t(i,k)·M^{s−1}(k,j) over the common
  // neighbours k of i and j. A bipartite graph has none, so those steps add
  // exactly +0.0 and p is the one-step M_b term (DESIGN.md §4).
  const size_t steps = graph.IsBipartite() ? 1 : options.max_steps;
  if (metrics != nullptr) {
    metrics->AddCounter("cliquerank/runs");
    metrics->AddCounter(engine == CliqueRankEngine::kDense
                            ? "cliquerank/engine_dense"
                            : "cliquerank/engine_masked");
  }

  CliqueRankResult result;
  result.engine_used = engine;
  Result<std::vector<double>> probability =
      RunSteps(setup, engine, steps, pairs, metrics, recorder, ctx);
  GTER_RETURN_IF_ERROR(probability.status());
  if (metrics != nullptr) {
    // The matrix products that ran: 0 when the graph is bipartite.
    metrics->AddCounter("cliquerank/steps", steps - 1);
  }
  result.pair_probability = std::move(probability).value();
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace gter
