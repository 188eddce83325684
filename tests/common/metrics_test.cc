// MetricsRegistry unit tests plus the end-to-end observability contract:
// a pipeline run with a registry in its context emits JSON containing the
// per-stage timers and counters the CLI's --metrics_out promises. The JSON
// is checked with a minimal in-test parser, so malformed output (bad
// escaping, trailing commas, non-numeric values) fails here and not in a
// downstream dashboard.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/metrics.h"
#include "gter/core/fusion.h"
#include "gter/core/rss.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "json_test_parser.h"

namespace gter {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

// --- Registry unit tests ----------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndPointReads) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Counter("a/b"), 0u);
  registry.AddCounter("a/b");
  registry.AddCounter("a/b", 41);
  EXPECT_EQ(registry.Counter("a/b"), 42u);

  registry.DeclareCounter("a/declared");
  EXPECT_EQ(registry.Counter("a/declared"), 0u);
  registry.AddCounter("a/declared", 5);
  registry.DeclareCounter("a/declared");  // must not reset
  EXPECT_EQ(registry.Counter("a/declared"), 5u);

  registry.SetGauge("g/x", 3.5);
  registry.SetGauge("g/x", 7.25);  // last write wins
  EXPECT_EQ(registry.Gauge("g/x"), 7.25);
}

TEST(MetricsRegistry, TimerAggregates) {
  MetricsRegistry registry;
  registry.RecordTime("stage/a", 0.5);
  registry.RecordTime("stage/a", 0.25);
  TimerStat t = registry.Timer("stage/a");
  EXPECT_EQ(t.count, 2u);
  EXPECT_DOUBLE_EQ(t.seconds, 0.75);
  EXPECT_EQ(registry.Timer("stage/untouched").count, 0u);
}

TEST(MetricsRegistry, HistogramBucketsAndMerge) {
  Histogram h;
  h.Observe(1.0);  // exactly 1 → bucket kBucketOfOne
  h.Observe(3.0);  // [2,4) → kBucketOfOne + 1
  h.Observe(0.0);  // non-positive → bucket 0
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 4.0);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_EQ(h.buckets[Histogram::kBucketOfOne], 1u);
  EXPECT_EQ(h.buckets[Histogram::kBucketOfOne + 1], 1u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(Histogram::kBucketOfOne),
                   2.0);

  Histogram other;
  other.Observe(1024.0);
  h.Merge(other);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.max, 1024.0);

  MetricsRegistry registry;
  registry.MergeHistogram("dist/x", h);
  registry.Observe("dist/x", 2.0);
  EXPECT_EQ(registry.HistogramOf("dist/x").count, 5u);
}

TEST(HistogramQuantile, EmptyEdgeAndSingleValue) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram single;
  single.Observe(3.75);
  // Clamping to the exact [min, max] envelope makes single-valued
  // histograms exact at every quantile.
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.Quantile(q), 3.75) << q;
  }

  Histogram two;
  two.Observe(1.0);
  two.Observe(1024.0);
  EXPECT_DOUBLE_EQ(two.Quantile(0.0), 1.0);    // q<=0 → min
  EXPECT_DOUBLE_EQ(two.Quantile(1.0), 1024.0); // q>=1 → max
}

TEST(HistogramQuantile, ExactForUniformValuesInOneBucket) {
  // 256 values uniformly spaced on [256, 511] land in one base-2 bucket.
  // The interpolation span is the bucket clamped to the recorded
  // [min, max] envelope, so the q-quantile of values uniform on
  // [min, max] is exactly min + q·(max − min).
  Histogram h;
  for (int i = 0; i < 256; ++i) h.Observe(256.0 + i);
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 256.0 + 0.50 * 255.0);  // 383.5
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 256.0 + 0.25 * 255.0);  // 319.75
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 256.0 + 0.95 * 255.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 256.0 + 0.99 * 255.0);
}

TEST(HistogramQuantile, ClampsInterpolationSpanToEnvelope) {
  // Regression: values concentrated in the top sliver of a wide bucket.
  // 12 values on [500, 511] occupy bucket [256, 512); interpolating over
  // the raw bucket span used to put every low/mid quantile below min and
  // flat-clamp it there (q(0.25) == q(0.5) == 500). Clamping the span to
  // [min, max] keeps the estimate exact for the uniform spread.
  Histogram h;
  for (int i = 0; i < 12; ++i) h.Observe(500.0 + i);
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 500.0 + 0.25 * 11.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 500.0 + 0.50 * 11.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 500.0 + 0.75 * 11.0);
  EXPECT_LT(h.Quantile(0.25), h.Quantile(0.50));  // no flat-clamping
  EXPECT_LT(h.Quantile(0.50), h.Quantile(0.75));
}

TEST(HistogramQuantile, WalksAcrossBuckets) {
  // Three observations at 1.0 (bucket [1,2)) and one at 1024: the median
  // interpolates 2/3 into [1,2), the p99 clamps to max.
  Histogram h;
  h.Observe(1.0);
  h.Observe(1.0);
  h.Observe(1.0);
  h.Observe(1024.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0 + (2.0 / 3.0));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1024.0);
  // Monotone in q.
  double prev = h.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = h.Quantile(q);
    EXPECT_GE(cur, prev) << q;
    prev = cur;
  }
}

TEST(HistogramQuantile, ToJsonEmitsPercentiles) {
  MetricsRegistry registry;
  for (int i = 0; i < 256; ++i) registry.Observe("h/d", 256.0 + i);
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
  const JsonValue& hist = root.At("histograms").At("h/d");
  EXPECT_DOUBLE_EQ(hist.At("p50").number, 383.5);
  EXPECT_DOUBLE_EQ(hist.At("p95").number, 256.0 + 0.95 * 255.0);
  EXPECT_DOUBLE_EQ(hist.At("p99").number, 256.0 + 0.99 * 255.0);

  // Empty histograms stay schema-stable: no percentile keys, count 0.
  MetricsRegistry empty;
  empty.MergeHistogram("h/empty", Histogram{});
  JsonValue empty_root;
  ASSERT_TRUE(JsonParser(empty.ToJson()).Parse(&empty_root));
  EXPECT_FALSE(empty_root.At("histograms").At("h/empty").Has("p50"));
}

TEST(MetricsRegistry, ScopedTimerRecordsOnlyWithRegistry) {
  { ScopedTimer noop(nullptr, nullptr, "x/y"); }  // must not crash
  MetricsRegistry registry;
  { ScopedTimer timer(&registry, nullptr, "x/y"); }
  EXPECT_EQ(registry.Timer("x/y").count, 1u);
  EXPECT_GE(registry.Timer("x/y").seconds, 0.0);
}

TEST(MetricsRegistry, ConcurrentMutationIsLinearizable) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.AddCounter("shared/counter");
        registry.Observe("shared/hist", static_cast<double>(i + 1));
        registry.RecordTime("shared/timer", 1e-9);
        registry.SetGauge("shared/gauge", static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.Counter("shared/counter"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.HistogramOf("shared/hist").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.Timer("shared/timer").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ToJsonIsValidAndDeterministic) {
  MetricsRegistry registry;
  registry.AddCounter("z/last", 3);
  registry.AddCounter("a/first", 1);
  registry.SetGauge("g/bytes", 1.5e6);
  registry.RecordTime("t/stage", 0.125);
  registry.Observe("h/dist", 2.0);
  std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());  // deterministic

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  for (const char* section : {"counters", "gauges", "timers", "histograms"}) {
    ASSERT_TRUE(root.Has(section)) << section;
  }
  EXPECT_EQ(root.At("counters").At("a/first").number, 1.0);
  EXPECT_EQ(root.At("counters").At("z/last").number, 3.0);
  EXPECT_EQ(root.At("gauges").At("g/bytes").number, 1.5e6);
  EXPECT_EQ(root.At("timers").At("t/stage").At("count").number, 1.0);
  EXPECT_EQ(root.At("timers").At("t/stage").At("seconds").number, 0.125);
  const JsonValue& hist = root.At("histograms").At("h/dist");
  EXPECT_EQ(hist.At("count").number, 1.0);
  EXPECT_EQ(hist.At("sum").number, 2.0);
  ASSERT_EQ(hist.At("buckets").kind, JsonValue::kArray);
  ASSERT_EQ(hist.At("buckets").array.size(), 1u);  // sparse emission
  EXPECT_EQ(hist.At("buckets").array[0].At("count").number, 1.0);
}

TEST(MetricsRegistry, JsonEscapesStrings) {
  MetricsRegistry registry;
  registry.AddCounter("weird\"name\\with\nescapes");
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
  EXPECT_TRUE(root.At("counters").Has("weird\"name\\with\nescapes"));
}

// --- SlidingHistogram ---------------------------------------------------

// Timestamps are injected (RecordAt/SnapshotAt) so rotation is driven
// deterministically: with an 8-second window each slot spans 1 second.
constexpr uint64_t kSec = 1'000'000'000ull;

TEST(SlidingHistogram, RecordsAndSnapshotsWithinWindow) {
  SlidingHistogram sliding(8.0);
  sliding.RecordAt(1.0, 1 * kSec);
  sliding.RecordAt(3.0, 2 * kSec);
  sliding.RecordAt(9.0, 3 * kSec);
  Histogram snap = sliding.SnapshotAt(3 * kSec);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 13.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 9.0);
}

TEST(SlidingHistogram, OldSlotsExpireFromTheWindow) {
  SlidingHistogram sliding(8.0);
  sliding.RecordAt(100.0, 1 * kSec);  // epoch 1
  sliding.RecordAt(5.0, 4 * kSec);    // epoch 4
  // At t=8 both are inside the 8-slot window [epoch 1, epoch 8].
  EXPECT_EQ(sliding.SnapshotAt(8 * kSec).count, 2u);
  // At t=9 the window is [epoch 2, epoch 9]: the first observation ages
  // out even though its slot has not been recycled yet.
  Histogram later = sliding.SnapshotAt(9 * kSec);
  EXPECT_EQ(later.count, 1u);
  EXPECT_DOUBLE_EQ(later.max, 5.0);
  // Far in the future the window is empty.
  EXPECT_EQ(sliding.SnapshotAt(100 * kSec).count, 0u);
}

TEST(SlidingHistogram, RotationRecyclesLapsedSlots) {
  SlidingHistogram sliding(8.0);
  sliding.RecordAt(7.0, 1 * kSec);  // epoch 1 → slot 1
  // Epoch 9 maps to the same slot; recording there must first recycle it,
  // dropping the epoch-1 tenancy.
  sliding.RecordAt(2.0, 9 * kSec);
  Histogram snap = sliding.SnapshotAt(9 * kSec);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
}

TEST(SlidingHistogram, StaleRecordNeverRecyclesANewerSlot) {
  SlidingHistogram sliding(8.0);
  sliding.RecordAt(5.0, 9 * kSec);  // epoch 9 → slot 1
  sliding.RecordAt(5.0, 9 * kSec);
  // Epoch 1 maps to slot 1 too, but lies a whole window behind it: the
  // record is dropped instead of recycling the slot backwards.
  sliding.RecordAt(7.0, 1 * kSec);
  Histogram snap = sliding.SnapshotAt(9 * kSec);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.max, 5.0);
}

TEST(SlidingHistogram, SnapshotCountMatchesBucketTotal) {
  // The Prometheus writer relies on count == Σ buckets for the
  // `+Inf == _count` invariant; the snapshot derives count from the
  // bucket array, so they can never disagree.
  SlidingHistogram sliding(8.0);
  for (int i = 0; i < 100; ++i) {
    sliding.RecordAt(static_cast<double>(i + 1), 2 * kSec);
  }
  Histogram snap = sliding.SnapshotAt(2 * kSec);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(snap.count, bucket_total);
  EXPECT_EQ(snap.count, 100u);
}

TEST(SlidingHistogram, ConcurrentRecordersLoseNothingWithoutRotation) {
  // All records land in one epoch, so no rotation races: every
  // observation must be present in the snapshot.
  SlidingHistogram sliding(8.0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sliding] {
      for (int i = 0; i < kPerThread; ++i) {
        sliding.RecordAt(static_cast<double>(i % 64 + 1), 3 * kSec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sliding.SnapshotAt(3 * kSec).count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(SlidingHistogram, ConcurrentRecordAndSnapshotAcrossRotation) {
  // Hammer record + snapshot across rotating epochs under TSan: the
  // assertions only check internal consistency (count == Σ buckets,
  // finite envelope) because rotation is allowed to drop edge
  // observations.
  SlidingHistogram sliding(0.000008);  // 1µs slots: rotation every record
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Histogram snap = sliding.Snapshot();
      uint64_t total = 0;
      for (uint64_t b : snap.buckets) total += b;
      EXPECT_EQ(snap.count, total);
      if (snap.count > 0) {
        EXPECT_LE(snap.min, snap.max);
      }
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&sliding] {
      for (int i = 0; i < 20000; ++i) {
        sliding.Record(static_cast<double>(i % 1000 + 1));
      }
    });
  }
  for (std::thread& t : recorders) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
}

TEST(MetricsRegistry, SlidingSectionInJsonAndSnapshots) {
  MetricsRegistry registry;
  // Without sliding histograms the section is absent (schema stability
  // for run_report consumers predating it).
  {
    JsonValue root;
    ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
    EXPECT_FALSE(root.Has("sliding"));
  }
  SlidingHistogram* sliding = registry.Sliding("server/x/work_us", 60.0);
  ASSERT_NE(sliding, nullptr);
  EXPECT_EQ(registry.Sliding("server/x/work_us"), sliding);  // stable ptr
  sliding->Record(250.0);
  EXPECT_EQ(registry.SlidingSnapshot("server/x/work_us").count, 1u);
  EXPECT_EQ(registry.SlidingSnapshot("server/absent").count, 0u);
  ASSERT_EQ(registry.SlidingSnapshots().size(), 1u);

  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
  ASSERT_TRUE(root.Has("sliding"));
  EXPECT_EQ(root.At("sliding").At("server/x/work_us").At("count").number,
            1.0);
}

// --- End-to-end: the pipeline emits the promised schema ----------------

TEST(PipelineMetrics, ResolveRunEmitsRequiredKeys) {
  MetricsRegistry registry;
  DeclarePipelineMetrics(&registry);
  ExecContext ctx;
  ctx.metrics = &registry;

  GeneratedDataset data =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 7, ctx);
  RemoveFrequentTerms(&data.dataset);
  FusionConfig config;
  config.rounds = 2;
  FusionPipeline pipeline(data.dataset, config, ctx);
  FusionResult result = pipeline.Run(ctx).value();
  EXPECT_EQ(result.round_stats.size(), 2u);

  std::string json = registry.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;

  // Stage timers observed on a CliqueRank-mode run.
  for (const char* timer :
       {"fusion/total", "fusion/round", "iter/total", "iter/sweep",
        "cliquerank/total", "pairspace/build", "bipartite/build"}) {
    ASSERT_TRUE(root.At("timers").Has(timer)) << timer << "\n" << json;
    EXPECT_GT(root.At("timers").At(timer).At("count").number, 0.0) << timer;
  }
  // Counters: live ones count, RSS's stay declared at zero (stable schema).
  for (const char* counter :
       {"dataset/records", "dataset/tokens", "pairspace/pairs", "iter/runs",
        "iter/sweeps", "cliquerank/runs", "fusion/rounds", "fusion/matches",
        "rss/walks_run", "rss/early_stops", "rss/target_hits"}) {
    ASSERT_TRUE(root.At("counters").Has(counter)) << counter;
  }
  EXPECT_GT(root.At("counters").At("dataset/records").number, 0.0);
  EXPECT_GT(root.At("counters").At("pairspace/pairs").number, 0.0);
  EXPECT_EQ(root.At("counters").At("fusion/rounds").number, 2.0);
  EXPECT_EQ(root.At("counters").At("rss/walks_run").number, 0.0);
  EXPECT_EQ(root.At("counters").At("cliquerank/runs").number, 2.0);
  // Exactly one engine per run.
  EXPECT_EQ(root.At("counters").At("cliquerank/engine_dense").number +
                root.At("counters").At("cliquerank/engine_masked").number,
            2.0);
  EXPECT_GT(root.At("gauges").At("cliquerank/scratch_bytes").number, 0.0);
  EXPECT_GT(root.At("counters").At("iter/sweeps").number, 0.0);
  ASSERT_TRUE(root.At("histograms").Has("iter/convergence_delta"));
  EXPECT_GT(root.At("histograms")
                .At("iter/convergence_delta")
                .At("count")
                .number,
            0.0);
}

TEST(PipelineMetrics, RssRunRecordsWalkCounters) {
  MetricsRegistry registry;
  ExecContext ctx;
  ctx.metrics = &registry;

  GeneratedDataset data =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 11);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset);
  BipartiteGraph bipartite = BipartiteGraph::Build(data.dataset, pairs);
  std::vector<double> uniform(pairs.size(), 1.0);
  IterResult iter = RunIter(bipartite, uniform).value();
  RecordGraph graph =
      RecordGraph::Build(data.dataset.size(), pairs, iter.pair_scores);
  RssOptions options;
  options.num_walks = 10;
  options.max_steps = 5;
  RunRss(graph, pairs, options, ctx).value();

  EXPECT_GT(registry.Counter("rss/walks_run"), 0u);
  EXPECT_GT(registry.Timer("rss/total").count, 0u);
  Histogram steps = registry.HistogramOf("rss/steps_per_walk");
  EXPECT_EQ(steps.count, registry.Counter("rss/walks_run"));
  EXPECT_GT(steps.max, 0.0);
  EXPECT_LE(steps.max, static_cast<double>(options.max_steps));
}

TEST(PipelineMetrics, WriteMetricsJsonRoundTrips) {
  MetricsRegistry registry;
  registry.AddCounter("x/y", 9);
  std::string path = ::testing::TempDir() + "/metrics_test_out.json";
  ASSERT_TRUE(WriteMetricsJson(path, registry).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue root;
  ASSERT_TRUE(JsonParser(contents).Parse(&root));
  EXPECT_EQ(root.At("counters").At("x/y").number, 9.0);

  EXPECT_FALSE(WriteMetricsJson("/nonexistent-dir/x.json", registry).ok());
}

}  // namespace
}  // namespace gter
