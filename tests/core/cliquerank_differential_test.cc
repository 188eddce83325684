// Differential tests over the CliqueRank engines: the dense (panel) engine
// and the masked-sparse engine run the same recurrence with bit-identical
// products, so on ANY graph both equal the full S-step recurrence computed
// here, bit for bit. Checked on one- and two-source Erdős–Rényi graphs
// whose densities straddle the kAuto switch point, across seeds and boost
// modes, at every SIMD level the host has, serial and under a thread pool.
// A second harness pins both production kernels bit-identically to the
// dense-scratch oracle (tests/matrix/masked_product_oracle.h) at a size
// where the O(n²) row-major scratch is the thing being replaced.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/cpu.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/cliquerank.h"
#include "gter/er/pair_space.h"
#include "gter/graph/record_graph.h"
#include "gter/matrix/csr_matrix.h"
#include "gter/matrix/masked_multiply.h"
#include "common/simd_levels.h"
#include "matrix/masked_product_oracle.h"

namespace gter {
namespace {

/// An Erdős–Rényi record graph: each candidate pair joins the pair space
/// with probability `density`, with uniform similarities. With one source
/// every pair of the n records is a candidate. With two sources (even and
/// odd record ids) only cross-source pairs are, as in PairSpace::Build, so
/// the graph is bipartite and its overall density is about density / 2.
struct ErdosRenyiWorld {
  PairSpace pairs;
  std::vector<double> sims;
  RecordGraph graph;

  ErdosRenyiWorld(size_t n, double density, uint64_t seed, uint32_t sources)
      : pairs(BuildPairs(n, density, seed, sources)),
        graph(BuildGraph(n, seed)) {}

  static PairSpace BuildPairs(size_t n, double density, uint64_t seed,
                              uint32_t sources) {
    Rng rng(seed);
    std::vector<RecordPair> edges;
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (sources == 2 && a % 2 == b % 2) continue;
        if (rng.UniformDouble() < density) edges.push_back({a, b});
      }
    }
    return PairSpace::FromPairs(std::move(edges));
  }

  RecordGraph BuildGraph(size_t n, uint64_t seed) {
    Rng rng(seed + 1);
    sims.resize(pairs.size());
    for (double& s : sims) s = rng.UniformDouble();
    return RecordGraph::Build(n, pairs, sims);
  }
};

/// CliqueRank's p with every one of the `max_steps` products run: the
/// recurrence from TransitionAndBoost and ComputeMaskedProductCsr, summed
/// on the edge pattern and clamped the way RunCliqueRank does it.
std::vector<double> FullRecurrence(const RecordGraph& graph,
                                   const PairSpace& pairs,
                                   const CliqueRankOptions& options) {
  const CliqueRankSetup setup = TransitionAndBoost(graph, options);
  const CsrMatrix& pattern = graph.AdjacencyMatrix();
  CsrMatrix trans = pattern;
  std::copy(setup.transition.begin(), setup.transition.end(),
            trans.mutable_values().begin());
  std::vector<double> cur = setup.boosted;
  std::vector<double> accum = cur;
  std::vector<double> next(cur.size(), 0.0);
  for (size_t step = 2; step <= options.max_steps; ++step) {
    EXPECT_TRUE(
        ComputeMaskedProductCsr(trans, cur.data(), pattern, next.data()).ok());
    cur.swap(next);
    for (size_t e = 0; e < cur.size(); ++e) accum[e] += cur[e];
  }
  std::vector<double> probability(pairs.size(), 0.0);
  for (PairId p = 0; p < pairs.size(); ++p) {
    const RecordPair& rp = pairs.pair(p);
    const double avg =
        (accum[static_cast<size_t>(pattern.PositionOf(rp.a, rp.b))] +
         accum[static_cast<size_t>(pattern.PositionOf(rp.b, rp.a))]) /
        2.0;
    probability[p] = std::clamp(avg, 0.0, 1.0);
  }
  return probability;
}

// (records, density, seed, sources): densities straddle
// kDenseDensityThreshold (0.25) so both sides of the kAuto switch are
// differentially covered. Two-source worlds have about half the overall
// density, so only their 0.6 arm (about 0.3) sits above the switch.
class CliqueRankEngineDifferential
    : public ::testing::TestWithParam<
          std::tuple<size_t, double, uint64_t, uint32_t>> {};

TEST_P(CliqueRankEngineDifferential, DenseAndMaskedAgree) {
  auto [n, density, seed, sources] = GetParam();
  ErdosRenyiWorld world(n, density, seed, sources);
  if (world.pairs.size() == 0) GTEST_SKIP() << "empty graph";
  if (sources == 2) {
    ASSERT_TRUE(world.graph.IsBipartite());
  }
  ThreadPool pool(4);

  for (BoostMode mode : {BoostMode::kSampled, BoostMode::kExpected}) {
    for (bool use_boost : {true, false}) {
      CliqueRankOptions dense;
      dense.engine = CliqueRankEngine::kDense;
      dense.boost_mode = mode;
      dense.use_boost = use_boost;
      dense.seed = seed * 1000 + 3;
      CliqueRankOptions masked = dense;
      masked.engine = CliqueRankEngine::kMaskedSparse;
      const std::vector<double> reference =
          FullRecurrence(world.graph, world.pairs, dense);
      // Products that run: none on a bipartite graph (DESIGN.md §4).
      const uint64_t products =
          world.graph.IsBipartite() ? 0 : dense.max_steps - 1;

      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel scoped(level);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string where =
              std::string("mode ") +
              (mode == BoostMode::kSampled ? "sampled" : "expected") +
              " boost " + (use_boost ? "on" : "off") + " level " +
              SimdLevelName(level) + (p ? " pooled" : " serial");
          MetricsRegistry dense_metrics, masked_metrics;
          ExecContext dense_ctx = ExecContext::WithPool(p);
          ExecContext masked_ctx = ExecContext::WithPool(p);
          dense_ctx.metrics = &dense_metrics;
          masked_ctx.metrics = &masked_metrics;
          CliqueRankResult rd =
              RunCliqueRank(world.graph, world.pairs, dense, dense_ctx)
                  .value();
          CliqueRankResult rm =
              RunCliqueRank(world.graph, world.pairs, masked, masked_ctx)
                  .value();
          ASSERT_EQ(rd.engine_used, CliqueRankEngine::kDense);
          ASSERT_EQ(rm.engine_used, CliqueRankEngine::kMaskedSparse);
          // Both engines are the reference recurrence, bit for bit.
          EXPECT_EQ(rd.pair_probability, reference)
              << "dense engine, " << where;
          EXPECT_EQ(rm.pair_probability, reference)
              << "masked engine, " << where;
          EXPECT_EQ(dense_metrics.Counter("cliquerank/steps"), products)
              << where;
          EXPECT_EQ(masked_metrics.Counter("cliquerank/steps"), products)
              << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, CliqueRankEngineDifferential,
    ::testing::Combine(::testing::Values<size_t>(24, 60),
                       ::testing::Values(0.05, 0.15, 0.35, 0.6),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values<uint32_t>(1, 2)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      if (std::get<3>(info.param) == 2) name += "_two_source";
      return name;
    });

/// A random symmetric structure, about 2·`degree` entries a row, with
/// row-normalized weights as `trans` and the same structure as `pattern`,
/// plus a random iterate on it.
struct KernelProblem {
  CsrMatrix trans;
  CsrMatrix pattern;
  std::vector<double> prev;

  KernelProblem(size_t n, int degree, uint64_t seed) {
    Rng rng(seed);
    std::vector<CsrMatrix::Triplet> triplets;
    for (uint32_t i = 0; i < n; ++i) {
      for (int e = 0; e < degree; ++e) {
        uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
        if (j == i) continue;
        double w = rng.OpenUniformDouble();
        triplets.push_back({i, j, w});
        triplets.push_back({j, i, w});
      }
    }
    trans = CsrMatrix::FromTriplets(n, n, triplets);
    trans.NormalizeRows();
    pattern = trans;
    prev.resize(pattern.nnz());
    for (double& v : prev) v = rng.UniformDouble();
  }
};

/// The kernel-level differentials: both production kernels against the
/// dense-scratch oracle (row-major n×n scratch, the same per-entry
/// summation order), bit for bit, at a scale where that scratch (n²
/// doubles) is what the CSR kernel exists to avoid and the panel kernel
/// spans 32 panels.
TEST(MaskedKernelDifferential, CsrGatherMatchesDenseScratchBitwise) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const KernelProblem k(2000, 6, seed);
    const std::vector<double> want =
        MaskedProductOracle(k.trans, k.prev, k.pattern);
    std::vector<double> out(k.pattern.nnz(), -1.0);
    ComputeMaskedProductCsr(k.trans, k.prev.data(), k.pattern, out.data());
    for (size_t e = 0; e < k.pattern.nnz(); ++e) {
      ASSERT_EQ(want[e], out[e]) << "entry " << e << " seed " << seed;
    }
  }
}

TEST(MaskedKernelDifferential, PanelsMatchDenseScratchBitwise) {
  ThreadPool pool(4);
  for (uint64_t seed : {11u, 12u, 13u}) {
    const KernelProblem k(2000, 6, seed);
    const std::vector<double> want =
        MaskedProductOracle(k.trans, k.prev, k.pattern);
    PanelScratch scratch(k.pattern.rows());
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel scoped(level);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<double> out(k.pattern.nnz(), -1.0);
        ASSERT_TRUE(ComputeMaskedProductPanels(k.trans, k.prev.data(),
                                               k.pattern, &scratch,
                                               out.data(),
                                               ExecContext::WithPool(p))
                        .ok());
        for (size_t e = 0; e < k.pattern.nnz(); ++e) {
          ASSERT_EQ(want[e], out[e])
              << "entry " << e << " seed " << seed << " level "
              << SimdLevelName(level) << (p ? " pooled" : " serial");
        }
      }
    }
  }
}

/// Same bitwise agreement with a thread pool driving the CSR kernel —
/// chunking must not change per-row summation order.
TEST(MaskedKernelDifferential, CsrGatherIsThreadCountInvariant) {
  const KernelProblem k(600, 5, 21);
  std::vector<double> serial(k.pattern.nnz(), 0.0);
  ComputeMaskedProductCsr(k.trans, k.prev.data(), k.pattern, serial.data());

  ThreadPool pool(4);
  std::vector<double> parallel(k.pattern.nnz(), 0.0);
  ComputeMaskedProductCsr(k.trans, k.prev.data(), k.pattern, parallel.data(),
                          ExecContext::WithPool(&pool));
  for (size_t e = 0; e < k.pattern.nnz(); ++e) {
    ASSERT_EQ(serial[e], parallel[e]) << "entry " << e;
  }
}

}  // namespace
}  // namespace gter
