// Differential tests over the CliqueRank engines: the dense GEMM engine
// and the masked-sparse engine implement the same recurrence and must
// agree on ANY graph — checked on Erdős–Rényi graphs whose densities
// straddle the kAuto switch point, across seeds and boost modes, and each
// engine is pinned bitwise against itself under a thread pool. A second
// harness pins the CSR-gather masked kernel bit-identically to the
// dense-scratch reference kernel at a size where the O(n²) scratch is the
// thing being replaced.

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/cliquerank.h"
#include "gter/er/pair_space.h"
#include "gter/graph/record_graph.h"
#include "gter/matrix/csr_matrix.h"
#include "gter/matrix/masked_multiply.h"

namespace gter {
namespace {

/// An Erdős–Rényi record graph: each of the n·(n−1)/2 pairs joins the
/// candidate space with probability `density`, with uniform similarities.
struct ErdosRenyiWorld {
  PairSpace pairs;
  std::vector<double> sims;
  RecordGraph graph;

  ErdosRenyiWorld(size_t n, double density, uint64_t seed)
      : pairs(BuildPairs(n, density, seed)), graph(BuildGraph(n, seed)) {}

  static PairSpace BuildPairs(size_t n, double density, uint64_t seed) {
    Rng rng(seed);
    std::vector<RecordPair> edges;
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
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

// (records, density, seed): densities straddle dense_density_threshold
// (0.25) so both sides of the kAuto switch are differentially covered.
class CliqueRankEngineDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

TEST_P(CliqueRankEngineDifferential, DenseAndMaskedAgree) {
  auto [n, density, seed] = GetParam();
  ErdosRenyiWorld world(n, density, seed);
  if (world.pairs.size() == 0) GTEST_SKIP() << "empty graph";
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
      const std::string where =
          std::string("mode ") +
          (mode == BoostMode::kSampled ? "sampled" : "expected") +
          " boost " + (use_boost ? "on" : "off");

      CliqueRankResult rd =
          RunCliqueRank(world.graph, world.pairs, dense).value();
      CliqueRankResult rm =
          RunCliqueRank(world.graph, world.pairs, masked).value();
      ASSERT_EQ(rd.engine_used, CliqueRankEngine::kDense);
      ASSERT_EQ(rm.engine_used, CliqueRankEngine::kMaskedSparse);
      ASSERT_EQ(rd.pair_probability.size(), world.pairs.size());
      for (PairId p = 0; p < world.pairs.size(); ++p) {
        EXPECT_NEAR(rd.pair_probability[p], rm.pair_probability[p], 1e-12)
            << "pair " << p << " " << where;
      }

      // Both engines are bit-identical to themselves under a thread pool.
      const ExecContext pooled = ExecContext::WithPool(&pool);
      EXPECT_EQ(
          RunCliqueRank(world.graph, world.pairs, dense, pooled)
              .value()
              .pair_probability,
          rd.pair_probability)
          << "dense engine, pool vs serial, " << where;
      EXPECT_EQ(
          RunCliqueRank(world.graph, world.pairs, masked, pooled)
              .value()
              .pair_probability,
          rm.pair_probability)
          << "masked engine, pool vs serial, " << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, CliqueRankEngineDifferential,
    ::testing::Combine(::testing::Values<size_t>(24, 60),
                       ::testing::Values(0.05, 0.15, 0.35, 0.6),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

/// The kernel-level differential: ComputeMaskedProductCsr (O(n) gather)
/// against ComputeMaskedProduct (O(n²) dense scratch) must be
/// bit-identical — same per-entry summation order — at a scale where the
/// dense scratch (n² doubles) is what the CSR path exists to avoid.
TEST(MaskedKernelDifferential, CsrGatherMatchesDenseScratchBitwise) {
  const size_t n = 2000;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    std::vector<CsrMatrix::Triplet> triplets;
    for (uint32_t i = 0; i < n; ++i) {
      for (int e = 0; e < 6; ++e) {
        uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
        if (j == i) continue;
        double w = rng.OpenUniformDouble();
        triplets.push_back({i, j, w});
        triplets.push_back({j, i, w});
      }
    }
    CsrMatrix trans = CsrMatrix::FromTriplets(n, n, triplets);
    trans.NormalizeRows();
    CsrMatrix pattern = trans;  // same structure
    std::vector<double> prev(pattern.nnz());
    for (double& v : prev) v = rng.UniformDouble();

    std::vector<double> scratch(n * n, 0.0);
    ScatterToDense(pattern, prev.data(), scratch.data());
    std::vector<double> out_dense(pattern.nnz(), -1.0);
    ComputeMaskedProduct(trans, scratch.data(), pattern, out_dense.data());

    std::vector<double> out_csr(pattern.nnz(), -1.0);
    ComputeMaskedProductCsr(trans, prev.data(), pattern, out_csr.data());

    for (size_t e = 0; e < pattern.nnz(); ++e) {
      ASSERT_EQ(out_dense[e], out_csr[e]) << "entry " << e << " seed "
                                          << seed;
    }
  }
}

/// Same bitwise agreement with a thread pool driving the CSR kernel —
/// chunking must not change per-row summation order.
TEST(MaskedKernelDifferential, CsrGatherIsThreadCountInvariant) {
  const size_t n = 600;
  Rng rng(21);
  std::vector<CsrMatrix::Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    for (int e = 0; e < 5; ++e) {
      uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j == i) continue;
      double w = rng.OpenUniformDouble();
      triplets.push_back({i, j, w});
      triplets.push_back({j, i, w});
    }
  }
  CsrMatrix trans = CsrMatrix::FromTriplets(n, n, triplets);
  trans.NormalizeRows();
  CsrMatrix pattern = trans;
  std::vector<double> prev(pattern.nnz());
  for (double& v : prev) v = rng.UniformDouble();

  std::vector<double> serial(pattern.nnz(), 0.0);
  ComputeMaskedProductCsr(trans, prev.data(), pattern, serial.data());

  ThreadPool pool(4);
  std::vector<double> parallel(pattern.nnz(), 0.0);
  ComputeMaskedProductCsr(trans, prev.data(), pattern, parallel.data(),
                          ExecContext::WithPool(&pool));
  for (size_t e = 0; e < pattern.nnz(); ++e) {
    ASSERT_EQ(serial[e], parallel[e]) << "entry " << e;
  }
}

}  // namespace
}  // namespace gter
