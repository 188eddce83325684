// SIMD-vs-scalar differential tests for the dispatched compute core:
// packed GEMM (≤1e-12 relative, FMA-reassociated), the batched
// Jaro-Winkler (bitwise), the dispatch machinery itself, and tier
// independence end to end: RunIter, ResolverState::BuildBatch and a
// masked-engine FusionPipeline::Run give bitwise-identical output at every
// level the host supports. AVX2-dependent cases GTEST_SKIP on machines or
// builds without the level, so the suite passes everywhere.

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/cpu.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/common/trace.h"
#include "gter/core/fusion.h"
#include "gter/core/iter.h"
#include "gter/core/resolver_state.h"
#include "gter/datagen/datagen.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/er/preprocess.h"
#include "gter/graph/bipartite_graph.h"
#include "gter/matrix/gemm.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

bool Avx2Available() { return DetectSimdLevel() >= SimdLevel::kAvx2; }

// ---------------------------------------------------------------------------
// Dispatch machinery.

TEST(SimdDispatch, ParseSimdLevel) {
  SimdLevel level;
  ASSERT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  ASSERT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  ASSERT_TRUE(ParseSimdLevel("avx512", &level));
  EXPECT_EQ(level, SimdLevel::kAvx512);
  ASSERT_TRUE(ParseSimdLevel("auto", &level));
  EXPECT_EQ(level, DetectSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("sse9", &level));
  EXPECT_FALSE(ParseSimdLevel("", &level));
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    SimdLevel parsed;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(SimdDispatch, ScopedLevelRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

TEST(SimdDispatch, SetSimdLevelClampsToDetected) {
  const SimdLevel before = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kAvx2);
  // Requesting avx2 on a scalar-only machine degrades instead of crashing.
  EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  // Same for avx512 on an avx2-only (or scalar-only) machine: the request
  // clamps to the detected tier, it never selects unrunnable kernels.
  SetSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  {
    ScopedSimdLevel scoped(SimdLevel::kAvx512);
    EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  }
  SetSimdLevel(before);
}

TEST(SimdDispatch, CpuFeaturesSane) {
  const CpuFeatures& f = DetectCpuFeatures();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_TRUE(f.sse2);  // x86-64 baseline
#endif
  // avx2 without avx would mean the XGETBV OS check is wrong.
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  EXPECT_FALSE(CpuFeatureString().empty());
}

TEST(SimdDispatch, EmitCpuInfoRecordsGaugesAndTraceLabel) {
  MetricsRegistry metrics;
  TraceRecorder trace;
  EmitCpuInfo(&metrics, &trace);
  const CpuFeatures& f = DetectCpuFeatures();
  EXPECT_EQ(metrics.Gauge("cpu/avx2"), f.avx2 ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/fma"), f.fma ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512f"), f.avx512f ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512bw"), f.avx512bw ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512dq"), f.avx512dq ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512vl"), f.avx512vl ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512vpopcntdq"),
            f.avx512vpopcntdq ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("simd/level"),
            static_cast<double>(ActiveSimdLevel()));
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("process_labels"), std::string::npos);
  EXPECT_NE(json.find("simd="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Packed GEMM.

DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->UniformDouble(-1.0, 1.0);
  }
  return m;
}

void ExpectGemmClose(const DenseMatrix& ref, const DenseMatrix& got) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (size_t r = 0; r < ref.rows(); ++r) {
    for (size_t c = 0; c < ref.cols(); ++c) {
      const double tolerance =
          1e-12 * std::max(1.0, std::fabs(ref(r, c)));
      ASSERT_NEAR(got(r, c), ref(r, c), tolerance) << "at (" << r << ", " << c
                                                   << ")";
    }
  }
}

// (m, k, n) shapes straddling every packing edge: the 4-row micropanel, the
// 8-column panel, the 64-row MC block, and the 256-deep KC slab.
class GemmDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmDifferential, PackedAvx2MatchesScalarWithinTolerance) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  DenseMatrix a = RandomMatrix(m, k, &rng);
  DenseMatrix b = RandomMatrix(k, n, &rng);

  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmDifferential,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 8, 8), std::make_tuple(5, 9, 17),
                      std::make_tuple(63, 64, 65), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 257, 9), std::make_tuple(70, 31, 70),
                      std::make_tuple(130, 300, 66)));

TEST(GemmSimd, SparseRowsSurviveThePanelSkip) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  // Rows 0-3 all zero, row 4 dense: the all-zero micropanel must be
  // skipped without corrupting C, and the mixed panel must still compute.
  Rng rng(5);
  DenseMatrix a(9, 300, 0.0);
  for (size_t c = 0; c < 300; ++c) a(4, c) = rng.UniformDouble(-1.0, 1.0);
  for (size_t c = 0; c < 300; c += 3) a(8, c) = rng.UniformDouble(-1.0, 1.0);
  DenseMatrix b = RandomMatrix(300, 33, &rng);
  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
  for (size_t c = 0; c < 33; ++c) ASSERT_EQ(got(0, c), 0.0);
}

TEST(GemmSimd, PackedKernelIsThreadCountInvariant) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  Rng rng(9);
  DenseMatrix a = RandomMatrix(150, 90, &rng);
  DenseMatrix b = RandomMatrix(90, 70, &rng);
  ScopedSimdLevel avx2(SimdLevel::kAvx2);
  DenseMatrix serial, parallel;
  Gemm(a, b, &serial);
  ThreadPool pool(4);
  Gemm(a, b, &parallel, ExecContext::WithPool(&pool));
  // Row blocks are computed independently with a fixed k-order, so the
  // pool changes nothing — bit for bit.
  EXPECT_EQ(serial.MaxAbsDiff(parallel), 0.0);
}

// ---------------------------------------------------------------------------
// RunIter end-to-end.

struct IterWorld {
  Dataset ds{"test"};
  PairSpace pairs;
  BipartiteGraph graph;
  std::vector<double> probability;

  /// Synthetic records of random tokens: adjacency sizes vary, so both the
  /// gather-reduce tails and main loops run. Scale `num_records`/`vocab`
  /// up to push num_terms past one reduction chunk (4096).
  explicit IterWorld(uint64_t seed, size_t num_records = 60,
                     size_t vocab = 150) {
    Rng rng(seed);
    for (size_t r = 0; r < num_records; ++r) {
      std::string text;
      const size_t k = 2 + rng.NextBounded(10);
      for (size_t t = 0; t < k; ++t) {
        if (!text.empty()) text += ' ';
        text += 't';
        text += std::to_string(rng.NextBounded(vocab));
      }
      ds.AddRecord(0, text);
    }
    pairs = PairSpace::Build(ds);
    graph = BipartiteGraph::Build(ds, pairs);
    probability.resize(pairs.size());
    for (double& p : probability) p = rng.UniformDouble();
  }
};

// Every level up to what the host supports; on an AVX-512 host all three.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= DetectSimdLevel()) levels.push_back(level);
  }
  return levels;
}

// Only GEMM may change numerics between tiers: ITER, the incremental
// engine and the masked CliqueRank engine run scalar code at every level,
// so their output must not depend on the level at all.
TEST(SimdTierIndependence, EveryLevelMatchesScalarBitwise) {
  if (!Avx2Available()) GTEST_SKIP() << "no SIMD tier to compare";
  IterWorld world(42);
  IterOptions iter_options;
  iter_options.max_iterations = 30;

  Dataset batch_data =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.12, 11).dataset;

  Dataset fusion_data =
      GenerateBenchmark(BenchmarkKind::kProduct, 0.1, 3).dataset;
  RemoveFrequentTerms(&fusion_data);
  FusionConfig fusion_config;
  fusion_config.rounds = 3;
  fusion_config.cliquerank.engine = CliqueRankEngine::kMaskedSparse;

  IterResult iter_ref;
  std::unique_ptr<ResolverState> batch_ref;
  FusionResult fusion_ref;
  for (SimdLevel level : SupportedLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    ScopedSimdLevel scoped(level);
    ASSERT_EQ(ActiveSimdLevel(), level);

    IterResult iter =
        RunIter(world.graph, world.probability, iter_options).value();

    auto batch = std::make_unique<ResolverState>(&batch_data);
    ASSERT_TRUE(batch->BuildBatch().ok());

    FusionPipeline pipeline(fusion_data, fusion_config);
    FusionResult fusion = pipeline.Run().value();

    if (level == SimdLevel::kScalar) {
      iter_ref = std::move(iter);
      batch_ref = std::move(batch);
      fusion_ref = std::move(fusion);
      continue;
    }
    EXPECT_EQ(iter.term_weights, iter_ref.term_weights);
    EXPECT_EQ(iter.pair_scores, iter_ref.pair_scores);
    EXPECT_EQ(iter.iterations, iter_ref.iterations);

    EXPECT_EQ(batch->term_weights(), batch_ref->term_weights());
    EXPECT_EQ(batch->pair_scores(), batch_ref->pair_scores());
    EXPECT_EQ(batch->cluster_of(), batch_ref->cluster_of());

    EXPECT_EQ(fusion.matches, fusion_ref.matches);
    EXPECT_EQ(fusion.cluster_of, fusion_ref.cluster_of);
    ASSERT_EQ(fusion.pair_probability.size(),
              fusion_ref.pair_probability.size());
    for (size_t p = 0; p < fusion.pair_probability.size(); ++p) {
      ASSERT_EQ(std::bit_cast<uint64_t>(fusion.pair_probability[p]),
                std::bit_cast<uint64_t>(fusion_ref.pair_probability[p]))
          << "pair " << p;
    }
  }
}

TEST(IterSimd, PoolRunIsBitIdenticalAtEveryLevel) {
  IterWorld world(7);
  IterOptions options;
  options.max_iterations = 20;
  ThreadPool pool(4);
  for (SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
    ScopedSimdLevel scoped(level);
    IterResult serial =
        RunIter(world.graph, world.probability, options).value();
    IterResult parallel = RunIter(world.graph, world.probability, options,
                                  ExecContext::WithPool(&pool))
                              .value();
    // Sweeps are gather-style and the chunked reductions have fixed
    // boundaries, so thread count changes nothing — bit for bit.
    EXPECT_EQ(serial.term_weights, parallel.term_weights)
        << "level " << SimdLevelName(level);
    EXPECT_EQ(serial.pair_scores, parallel.pair_scores)
        << "level " << SimdLevelName(level);
    EXPECT_EQ(serial.iterations, parallel.iterations);
  }
}

TEST(IterSimd, L2NormalizationParallelReductionIsDeterministic) {
  IterWorld world(13);
  IterOptions options;
  options.normalization = IterNormalization::kL2;
  options.max_iterations = 15;
  ThreadPool pool(3);
  IterResult serial = RunIter(world.graph, world.probability, options).value();
  IterResult parallel = RunIter(world.graph, world.probability, options,
                                ExecContext::WithPool(&pool))
                            .value();
  EXPECT_EQ(serial.term_weights, parallel.term_weights);
}

TEST(IterSimd, MultiChunkReductionsAreThreadCountInvariant) {
  // Enough distinct terms that the convergence-delta / L2-norm reductions
  // span several 4096-wide chunks — the parallel partial-sum path proper.
  IterWorld world(29, /*num_records=*/1200, /*vocab=*/12000);
  ASSERT_GT(world.graph.num_terms(), 4096u);
  IterOptions options;
  options.normalization = IterNormalization::kL2;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  IterResult serial = RunIter(world.graph, world.probability, options).value();
  ThreadPool pool(5);
  IterResult parallel = RunIter(world.graph, world.probability, options,
                                ExecContext::WithPool(&pool))
                            .value();
  EXPECT_EQ(serial.term_weights, parallel.term_weights);
  EXPECT_EQ(serial.pair_scores, parallel.pair_scores);
}

// ---------------------------------------------------------------------------
// Batched Jaro-Winkler.

TEST(JaroWinklerBatch, BitIdenticalToPerCallEntryPoint) {
  const std::vector<std::string> candidates = {
      "",           "arnie",     "arnie mortons", "morton arnies",
      "campanile",  "champagne", "panasonic",     "pansonic",
      "x",          "arnie mortons of chicago 435 s la cienega blvd"};
  std::vector<double> batch;
  for (const char* query :
       {"arnie mortons", "campanile", "", "z", "panasonic pslx350h"}) {
    JaroWinklerSimilarityBatch(query, candidates, &batch);
    ASSERT_EQ(batch.size(), candidates.size());
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(batch[j], JaroWinklerSimilarity(query, candidates[j]))
          << "query '" << query << "' candidate " << j;
    }
  }
}

TEST(JaroWinklerBatch, EmptyCandidateList) {
  std::vector<double> out(3, -1.0);
  JaroWinklerSimilarityBatch("abc", {}, &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace gter
