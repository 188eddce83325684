// SIMD-vs-scalar differential tests for the dispatched compute core: the
// dispatch machinery itself, the batched Jaro-Winkler (bitwise), and tier
// independence end to end: RunIter, ResolverState::BuildBatch and
// FusionPipeline::Run on both CliqueRank engines give bitwise-identical
// output at every level the host supports. Cases that compare two levels
// GTEST_SKIP on machines or builds without AVX-512, so the suite passes
// everywhere.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
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
#include "gter/text/string_metrics.h"
#include "common/simd_levels.h"

namespace gter {
namespace {

bool SimdTierAvailable() { return DetectSimdLevel() > SimdLevel::kScalar; }

// ---------------------------------------------------------------------------
// Dispatch machinery.

TEST(SimdDispatch, ParseSimdLevel) {
  SimdLevel level;
  ASSERT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  ASSERT_TRUE(ParseSimdLevel("avx512", &level));
  EXPECT_EQ(level, SimdLevel::kAvx512);
  ASSERT_TRUE(ParseSimdLevel("auto", &level));
  EXPECT_EQ(level, DetectSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("sse9", &level));
  // No kernel has an avx2 tier, so there is no avx2 level to select.
  EXPECT_FALSE(ParseSimdLevel("avx2", &level));
  EXPECT_FALSE(ParseSimdLevel("", &level));
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx512}) {
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
  // Requesting avx512 on a machine without it degrades instead of
  // crashing: the request clamps to the detected tier, it never selects
  // unrunnable kernels.
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

// No fusion output depends on the tier: ITER and the incremental engine
// run scalar code at every level, and the dense engine's panel kernel is
// bitwise equal to the scalar sum at each width, so the masked-engine run
// on Product and the dense-engine run on Paper (one source, triangles, so
// every CliqueRank step runs a panel product) must not move at all.
TEST(SimdTierIndependence, EveryLevelMatchesScalarBitwise) {
  if (!SimdTierAvailable()) GTEST_SKIP() << "no SIMD tier to compare";
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

  Dataset dense_data =
      GenerateBenchmark(BenchmarkKind::kPaper, 0.1, 5).dataset;
  RemoveFrequentTerms(&dense_data);
  FusionConfig dense_config;
  dense_config.rounds = 2;
  dense_config.cliquerank.engine = CliqueRankEngine::kDense;

  IterResult iter_ref;
  std::unique_ptr<ResolverState> batch_ref;
  FusionResult fusion_ref;
  FusionResult dense_ref;
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

    MetricsRegistry dense_metrics;
    ExecContext dense_ctx;
    dense_ctx.metrics = &dense_metrics;
    FusionPipeline dense_pipeline(dense_data, dense_config);
    FusionResult dense = dense_pipeline.Run(dense_ctx).value();
    ASSERT_GT(dense_metrics.Counter("cliquerank/steps"), 0u);

    if (level == SimdLevel::kScalar) {
      iter_ref = std::move(iter);
      batch_ref = std::move(batch);
      fusion_ref = std::move(fusion);
      dense_ref = std::move(dense);
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

    EXPECT_EQ(dense.matches, dense_ref.matches);
    EXPECT_EQ(dense.cluster_of, dense_ref.cluster_of);
    EXPECT_EQ(dense.pair_probability, dense_ref.pair_probability);
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
