#include "gter/core/cliquerank.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"
#include "gter/common/timer.h"
#include "gter/matrix/masked_multiply.h"

namespace gter {
namespace {

// The recurrence on the graph's stored edge pattern, shared by both
// engines: the iterate, the accumulator and the read-out of p live in
// value arrays parallel to the pattern's CSR values, and only the per-step
// product differs. The two products are bit-identical
// (masked_multiply.h), so the engine choice decides speed and memory,
// never p. M¹ = M_b becomes the accumulator; the iterates and the
// product's scratch exist only when a product runs.
Result<std::vector<double>> RunSteps(const RecordGraph& graph,
                                     const CsrMatrix& trans,
                                     std::vector<double> accum,
                                     CliqueRankEngine engine, size_t steps,
                                     const ExecContext& ctx) {
  const CsrMatrix& pattern = graph.AdjacencyMatrix();
  const size_t n = pattern.rows();
  const bool dense = engine == CliqueRankEngine::kDense;
  std::vector<double> cur, next;
  // The dense engine's only dense state.
  std::optional<PanelScratch> scratch;
  size_t product_bytes = 0;
  if (steps > 1) {
    cur = accum;
    next.assign(accum.size(), 0.0);
    if (dense) scratch.emplace(n);
    // The panel scratch, or the CSR kernel's O(n) per-chunk accumulator.
    product_bytes = dense ? scratch->bytes() : n * sizeof(double);
  }
  if (ctx.metrics != nullptr) {
    // accum, plus cur/next and the product's own buffer when one runs.
    const size_t arrays = steps > 1 ? 3 : 1;
    ctx.metrics->SetGauge("cliquerank/scratch_bytes",
                          static_cast<double>(arrays * accum.size() *
                                                  sizeof(double) +
                                              product_bytes));
  }
  for (size_t step = 2; step <= steps; ++step) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    {
      ScopedTimer product_timer(
          ctx.metrics, ctx.trace,
          dense ? "cliquerank/dense_product" : "cliquerank/masked_product",
          TraceArg{"step", static_cast<double>(step)});
      GTER_RETURN_IF_ERROR(
          dense ? ComputeMaskedProductPanels(trans, cur.data(), pattern,
                                             &*scratch, next.data(), ctx)
                : ComputeMaskedProductCsr(trans, cur.data(), pattern,
                                          next.data(), ctx));
    }
    cur.swap(next);
    ParallelFor(ctx, 0, cur.size(), /*grain=*/4096,
                [&](size_t lo, size_t hi) {
      for (size_t e = lo; e < hi; ++e) accum[e] += cur[e];
    });
  }

  std::vector<double> probability(graph.num_edges(), 0.0);
  ParallelFor(ctx, 0, probability.size(), /*grain=*/256,
              [&](size_t lo, size_t hi) {
    for (PairId p = lo; p < hi; ++p) {
      const RecordGraph::EdgePositions pos = graph.PositionsOf(p);
      const double avg = (accum[pos.ab] + accum[pos.ba]) / 2.0;
      probability[p] = std::clamp(avg, 0.0, 1.0);
    }
  });
  return probability;
}

// Writes M_t into `transition` and M_b into `boosted`, value arrays
// parallel to the graph's pattern. They may be one array: each M_b entry
// is computed from the same M_t entry and written over it.
void WriteTransitionAndBoost(const RecordGraph& graph,
                             const CliqueRankOptions& options,
                             double* transition, double* boosted) {
  const CsrMatrix& pattern = graph.AdjacencyMatrix();
  Rng rng(options.seed);
  double expected_boost = 0.0;
  if (options.use_boost && options.boost_mode == BoostMode::kExpected) {
    // E[(1+b)^α] for b ~ U(0,1) = (2^{α+1} − 1) / (α + 1).
    expected_boost =
        (std::pow(2.0, options.alpha + 1.0) - 1.0) / (options.alpha + 1.0);
  }
  // Rows are visited in CSR order, so the sampled bonuses are drawn in CSR
  // value order.
  for (RecordId r = 0; r < graph.num_nodes(); ++r) {
    auto wts = graph.Weights(r);
    if (wts.empty()) continue;
    double* tv = transition + pattern.RowStart(r);
    double* bv = boosted + pattern.RowStart(r);
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
}

}  // namespace

CliqueRankSetup TransitionAndBoost(const RecordGraph& graph,
                                   const CliqueRankOptions& options) {
  CliqueRankSetup setup;
  setup.transition.resize(graph.AdjacencyMatrix().nnz());
  setup.boosted.resize(graph.AdjacencyMatrix().nnz());
  WriteTransitionAndBoost(graph, options, setup.transition.data(),
                          setup.boosted.data());
  return setup;
}

Result<CliqueRankResult> RunCliqueRank(const RecordGraph& graph,
                                       const PairSpace& pairs,
                                       const CliqueRankOptions& options,
                                       const ExecContext& ctx) {
  GTER_CHECK(options.max_steps >= 1);
  GTER_CHECK(pairs.size() == graph.num_edges());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "cliquerank/total");
  Stopwatch watch;
  CliqueRankEngine engine = options.engine;
  if (engine == CliqueRankEngine::kAuto) {
    engine = graph.Density() >= kDenseDensityThreshold
                 ? CliqueRankEngine::kDense
                 : CliqueRankEngine::kMaskedSparse;
  }
  // On an edge (i,j), step s ≥ 2 sums M_t(i,k)·M^{s−1}(k,j) over the common
  // neighbours k of i and j. A bipartite graph has none, so those steps add
  // exactly +0.0 and p is the one-step M_b term (DESIGN.md §4).
  const size_t steps = graph.IsBipartite() ? 1 : options.max_steps;
  // M_b, the first iterate. When products run, M_t is written straight
  // into a copy of the pattern, the matrix the product kernels take;
  // otherwise it is needed only on the way to M_b and shares its array.
  std::vector<double> boosted(graph.AdjacencyMatrix().nnz());
  CsrMatrix trans;
  {
    ScopedTimer setup_timer(ctx.metrics, ctx.trace, "cliquerank/setup");
    double* transition = boosted.data();
    if (steps > 1) {
      trans = graph.AdjacencyMatrix();
      transition = trans.mutable_values().data();
    }
    WriteTransitionAndBoost(graph, options, transition, boosted.data());
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("cliquerank/runs");
    ctx.metrics->AddCounter(engine == CliqueRankEngine::kDense
                                ? "cliquerank/engine_dense"
                                : "cliquerank/engine_masked");
  }

  CliqueRankResult result;
  result.engine_used = engine;
  Result<std::vector<double>> probability =
      RunSteps(graph, trans, std::move(boosted), engine, steps, ctx);
  GTER_RETURN_IF_ERROR(probability.status());
  if (ctx.metrics != nullptr) {
    // The matrix products that ran: 0 when the graph is bipartite.
    ctx.metrics->AddCounter("cliquerank/steps", steps - 1);
  }
  result.pair_probability = std::move(probability).value();
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace gter
