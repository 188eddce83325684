// TraceRecorder unit + concurrency tests: Chrome trace-event JSON schema
// (validated with the independent in-test parser), per-thread buffers and
// drop accounting, ScopedTimer's dual-sink behavior, ThreadPool worker
// naming and ParallelFor's task spans, an 8-thread recorder stress run
// with concurrent export (meaningful under -L tsan), and two concurrent
// pipeline runs on one pool that each keep their own sinks.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/metrics.h"
#include "gter/common/thread_pool.h"
#include "gter/common/trace.h"
#include "gter/core/fusion.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "json_test_parser.h"

namespace gter {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

/// Parses a recorder's export and returns the traceEvents array after
/// checking the envelope.
std::vector<JsonValue> ParseTrace(const TraceRecorder& recorder) {
  std::string json = recorder.ToChromeJson();
  JsonValue root;
  EXPECT_TRUE(JsonParser(json).Parse(&root)) << json;
  EXPECT_EQ(root.At("displayTimeUnit").string, "ms");
  EXPECT_EQ(root.At("traceEvents").kind, JsonValue::kArray);
  return root.At("traceEvents").array;
}

TEST(TraceRecorder, ChromeJsonSchema) {
  TraceRecorder recorder;
  const uint64_t t0 = TraceRecorder::NowNs();
  recorder.RecordSpan("stage/one", "stage", t0, 1500,
                      TraceArg{"round", 3.0});
  recorder.RecordSpan("stage/two", "pool", t0 + 2000, 250,
                      TraceArg{"a", 1.0}, TraceArg{"b", 2.5});
  recorder.RecordSpan("stage/bare", "stage", t0 + 3000, 1);

  std::vector<JsonValue> events = ParseTrace(recorder);
  size_t metadata = 0, complete = 0;
  bool saw_process_name = false;
  for (const JsonValue& e : events) {
    const std::string& ph = e.At("ph").string;
    if (ph == "M") {
      ++metadata;
      saw_process_name |= e.At("name").string == "process_name";
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    // Every complete event carries the full span schema.
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("cat"));
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
    EXPECT_GE(e.At("ts").number, 0.0);   // microseconds from recorder epoch
    EXPECT_GE(e.At("dur").number, 0.0);
    if (e.At("name").string == "stage/one") {
      EXPECT_EQ(e.At("cat").string, "stage");
      EXPECT_DOUBLE_EQ(e.At("dur").number, 1.5);  // 1500 ns = 1.5 us
      EXPECT_DOUBLE_EQ(e.At("args").At("round").number, 3.0);
    }
    if (e.At("name").string == "stage/two") {
      EXPECT_DOUBLE_EQ(e.At("args").At("a").number, 1.0);
      EXPECT_DOUBLE_EQ(e.At("args").At("b").number, 2.5);
    }
    if (e.At("name").string == "stage/bare") {
      EXPECT_FALSE(e.Has("args"));  // no args → no args object
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_GE(metadata, 2u);  // process_name + this thread's thread_name
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(recorder.event_count(), 3u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(TraceRecorder, FixedCapacityCountsDrops) {
  TraceRecorder recorder(/*capacity_per_thread=*/4);
  const uint64_t t0 = TraceRecorder::NowNs();
  for (int i = 0; i < 10; ++i) {
    recorder.RecordSpan("s", "c", t0, 1);
  }
  EXPECT_EQ(recorder.event_count(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  // Export still succeeds and holds exactly the surviving events.
  size_t complete = 0;
  for (const JsonValue& e : ParseTrace(recorder)) {
    complete += e.At("ph").string == "X";
  }
  EXPECT_EQ(complete, 4u);
}

TEST(TraceRecorder, EachRecorderKeepsItsOwnThreadBuffer) {
  // A thread that alternates between recorders (a pool worker running
  // chunks of two runs) writes each span into the recorder it is handed
  // and returns to its one buffer there.
  TraceRecorder outer, inner;
  { ScopedTraceSpan span(&outer, "outer/span"); }
  { ScopedTraceSpan span(&inner, "inner/span"); }
  { ScopedTraceSpan span(&outer, "outer/span"); }
  EXPECT_EQ(inner.event_count(), 1u);
  EXPECT_EQ(outer.event_count(), 2u);
  size_t outer_tracks = 0;
  for (const JsonValue& e : ParseTrace(outer)) {
    outer_tracks +=
        e.At("ph").string == "M" && e.At("name").string == "thread_name";
  }
  EXPECT_EQ(outer_tracks, 1u);
  // Per-request recorders are created and freed constantly: a fresh one
  // on this thread, even at a freed one's address, must not see a buffer
  // cached for another (the cache is keyed by recorder id).
  for (int i = 0; i < 3; ++i) {
    auto fresh = std::make_unique<TraceRecorder>();
    { ScopedTraceSpan span(fresh.get(), "fresh/span"); }
    EXPECT_EQ(fresh->event_count(), 1u);
  }
  EXPECT_EQ(outer.event_count(), 2u);
}

TEST(TraceRecorder, ScopedSpanIsNoOpWithoutRecorder) {
  // Nothing to assert beyond "does not crash".
  ScopedTraceSpan span(nullptr, "nothing/to", "see", TraceArg{"x", 1.0});
}

TEST(TraceRecorder, ScopedTimerFeedsBothSinks) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  {
    ScopedTimer timer(&registry, &recorder, "dual/stage",
                      TraceArg{"round", 2.0});
  }
  // One timer entry and one span, from the same clock reads.
  EXPECT_EQ(registry.Timer("dual/stage").count, 1u);
  ASSERT_EQ(recorder.event_count(), 1u);
  bool found = false;
  for (const JsonValue& e : ParseTrace(recorder)) {
    if (e.At("ph").string != "X") continue;
    found = true;
    EXPECT_EQ(e.At("name").string, "dual/stage");
    EXPECT_EQ(e.At("cat").string, "stage");
    EXPECT_DOUBLE_EQ(e.At("args").At("round").number, 2.0);
    // Metrics seconds and span duration agree (same interval; the span is
    // nanosecond-truncated).
    EXPECT_NEAR(e.At("dur").number * 1e-6,
                registry.Timer("dual/stage").seconds, 1e-6);
  }
  EXPECT_TRUE(found);

  // Timer-only (no recorder) and span-only (null registry) still work.
  { ScopedTimer timer(&registry, nullptr, "dual/stage"); }
  EXPECT_EQ(registry.Timer("dual/stage").count, 2u);
  EXPECT_EQ(recorder.event_count(), 1u);
  { ScopedTimer timer(nullptr, &recorder, "dual/traced_only"); }
  EXPECT_EQ(registry.Timer("dual/traced_only").count, 0u);
  EXPECT_EQ(recorder.event_count(), 2u);
}

TEST(TraceRecorder, ThreadPoolTasksGetNamedTracks) {
  TraceRecorder recorder;
  {
    ThreadPool pool(3);
    ExecContext ctx = ExecContext::WithPool(&pool);
    ctx.trace = &recorder;
    // Barrier batch: one chunk per worker, each spinning until every chunk
    // has started. The help-draining waiter can run at most one of them,
    // so at least num_threads-1 must land on pool workers — guaranteeing a
    // pool-worker-* track regardless of scheduling.
    std::atomic<size_t> started{0};
    ParallelFor(ctx, 0, pool.num_threads(), /*grain=*/1,
                [&started, &pool](size_t, size_t) {
                  started.fetch_add(1, std::memory_order_relaxed);
                  while (started.load(std::memory_order_relaxed) <
                         pool.num_threads()) {
                    std::this_thread::yield();
                  }
                });
    ParallelFor(ctx, 0, 64, /*grain=*/4, [&recorder](size_t lo, size_t hi) {
      ScopedTraceSpan span(&recorder, "work/chunk", "test");
      volatile double sink = 0.0;
      for (size_t i = lo; i < hi; ++i) sink = sink + static_cast<double>(i);
    });
  }
  size_t pool_tasks = 0, chunks = 0, worker_tracks = 0;
  for (const JsonValue& e : ParseTrace(recorder)) {
    const std::string& ph = e.At("ph").string;
    if (ph == "M" && e.At("name").string == "thread_name") {
      worker_tracks +=
          e.At("args").At("name").string.rfind("pool-worker-", 0) == 0;
    }
    if (ph != "X") continue;
    pool_tasks += e.At("name").string == "pool/task";
    chunks += e.At("name").string == "work/chunk";
  }
  // Every barrier chunk and every work chunk ran as a pool task; the
  // barrier pinned at least num_threads-1 of them to named worker tracks.
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(pool_tasks, chunks + 3);
  EXPECT_GE(worker_tracks, 2u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(TraceRecorder, WriteTraceJsonRoundTrips) {
  TraceRecorder recorder;
  recorder.RecordSpan("x/y", "stage", TraceRecorder::NowNs(), 42);
  std::string path = ::testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(WriteTraceJson(path, recorder).ok());

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
  EXPECT_EQ(root.At("traceEvents").kind, JsonValue::kArray);

  EXPECT_FALSE(WriteTraceJson("/nonexistent-dir/t.json", recorder).ok());
}

TEST(TraceRecorder, ConcurrentRecordingAndExportStress) {
  // 8 writer threads record spans while the main thread repeatedly
  // exports — the reader/writer interleaving TSAN checks.
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 12);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, &recorder, t] {
      SetCurrentThreadTraceName("stress-" + std::to_string(t));
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedTraceSpan span(&recorder, "stress/span", "stress",
                             TraceArg{"i", static_cast<double>(i)});
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int round = 0; round < 20; ++round) {
    // Must parse cleanly even while half-written (readers only see the
    // published prefix of each thread's buffer).
    JsonValue root;
    std::string json = recorder.ToChromeJson();
    ASSERT_TRUE(JsonParser(json).Parse(&root));
  }
  for (std::thread& t : writers) t.join();

  const uint64_t capacity = uint64_t{1} << 12;
  const uint64_t per_thread =
      std::min<uint64_t>(kSpansPerThread, capacity);
  EXPECT_EQ(recorder.event_count() + recorder.dropped_events(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(recorder.event_count(),
            static_cast<uint64_t>(kThreads) * per_thread);

  size_t named_tracks = 0;
  for (const JsonValue& e : ParseTrace(recorder)) {
    if (e.At("ph").string == "M" && e.At("name").string == "thread_name") {
      named_tracks += e.At("args").At("name").string.rfind("stress-", 0) == 0;
    }
  }
  EXPECT_EQ(named_tracks, static_cast<size_t>(kThreads));
}

TEST(PipelineTrace, FusionRunEmitsStageSpans) {
  // End-to-end wiring: a pipeline run with a recorder in its context — and
  // deliberately NO metrics registry — produces the documented stage spans
  // with their numeric args.
  TraceRecorder recorder;
  {
    ExecContext ctx;
    ctx.trace = &recorder;
    GeneratedDataset data =
        GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 7);
    RemoveFrequentTerms(&data.dataset);
    FusionConfig config;
    config.rounds = 2;
    FusionPipeline pipeline(data.dataset, config, ctx);
    pipeline.Run(ctx).value();
  }
  size_t rounds = 0, sweeps = 0, totals = 0;
  double max_round_arg = 0.0;
  for (const JsonValue& e : ParseTrace(recorder)) {
    if (e.At("ph").string != "X") continue;
    const std::string& name = e.At("name").string;
    if (name == "fusion/round") {
      ++rounds;
      max_round_arg = std::max(max_round_arg, e.At("args").At("round").number);
    }
    sweeps += name == "iter/sweep";
    totals += name == "fusion/total";
  }
  EXPECT_EQ(totals, 1u);
  EXPECT_EQ(rounds, 2u);
  EXPECT_DOUBLE_EQ(max_round_arg, 2.0);  // rounds are 1-based
  EXPECT_GT(sweeps, 0u);
}

/// How often each span name was recorded.
std::map<std::string, size_t> SpanNameCounts(const TraceRecorder& recorder) {
  std::map<std::string, size_t> counts;
  for (const TraceEvent& e : recorder.Snapshot()) ++counts[e.name];
  return counts;
}

TEST(PipelineTrace, ConcurrentRunsOnOneSharedPoolKeepTheirOwnSinks) {
  // Two fusion runs at once on one 4-thread pool, each with its own
  // registry and recorder. Each recorder must hold exactly the spans its
  // run records alone — its pool/task chunks included, whichever worker
  // ran them — and each registry the counters of a solo run.
  GeneratedDataset restaurant =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.2, 7);
  GeneratedDataset paper = GenerateBenchmark(BenchmarkKind::kPaper, 0.1, 7);
  RemoveFrequentTerms(&restaurant.dataset);
  RemoveFrequentTerms(&paper.dataset);
  FusionConfig config;
  config.rounds = 2;
  FusionPipeline pipelines[] = {FusionPipeline(restaurant.dataset, config),
                                FusionPipeline(paper.dataset, config)};
  ThreadPool pool(4);
  struct Sinks {
    MetricsRegistry metrics;
    TraceRecorder trace{/*capacity_per_thread=*/1 << 14};
  };
  const auto run = [&](size_t i, Sinks* sinks) {
    ExecContext ctx = ExecContext::WithPool(&pool);
    ctx.metrics = &sinks->metrics;
    ctx.trace = &sinks->trace;
    EXPECT_TRUE(pipelines[i].Run(ctx).ok());
  };
  Sinks solo[2];
  run(0, &solo[0]);
  run(1, &solo[1]);
  Sinks together[2];
  std::thread first([&] { run(0, &together[0]); });
  std::thread second([&] { run(1, &together[1]); });
  first.join();
  second.join();

  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "restaurant" : "paper");
    const std::map<std::string, size_t> spans = SpanNameCounts(solo[i].trace);
    EXPECT_TRUE(spans.contains("pool/task"));
    EXPECT_EQ(SpanNameCounts(together[i].trace), spans);
    EXPECT_EQ(together[i].trace.dropped_events(), 0u);
    EXPECT_EQ(together[i].metrics.CountersSnapshot(),
              solo[i].metrics.CountersSnapshot());
  }
  // The two runs differ, so a span or counter landing in the other run's
  // sinks would show above.
  EXPECT_NE(SpanNameCounts(solo[0].trace), SpanNameCounts(solo[1].trace));
}

}  // namespace
}  // namespace gter
