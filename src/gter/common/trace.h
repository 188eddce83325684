#ifndef GTER_COMMON_TRACE_H_
#define GTER_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gter/common/status.h"

namespace gter {

/// Event-level tracing layer (see DESIGN.md §"Tracing").
///
/// Where `MetricsRegistry` aggregates (a timer is one `{count, seconds}`
/// pair per stage), `TraceRecorder` keeps every span: begin/end timestamps
/// off `steady_clock`, a static name and category, and up to two numeric
/// arguments (sweep index, fusion round, chunk size, ...). The recorded
/// timeline exports as Chrome trace-event JSON (`--trace_out`), loadable in
/// Perfetto (https://ui.perfetto.dev) or `chrome://tracing`, with one track
/// per thread — so the schedule of RSS chunks and CliqueRank steps across
/// the ThreadPool is visible, not just their totals.
///
/// A stage records into the `trace` field of the `ExecContext` it is
/// handed; there is no global recorder. `ParallelFor` records each pooled
/// chunk as a `pool/task` span into the same recorder, so a run's chunks
/// land with the run that scheduled them, whichever worker ran them.
///
/// Contract (mirrors the metrics layer): with a null recorder, every
/// instrumentation point is one pointer test — no clock reads, no locks,
/// no allocation. Recording is lock-free: each thread appends to its own
/// pre-allocated buffer and publishes the new size with a release store;
/// the mutex is taken only when a thread first records into a recorder,
/// when a thread returns to a recorder after recording into another, and
/// per export.
///
/// Span naming convention: the same lowercase `stage/span` slugs the
/// metrics layer uses (`fusion/round`, `iter/sweep`, `rss/chunk`); the
/// category is the coarse subsystem (`stage`, `pool`, `rss`, ...).

/// Optional numeric argument attached to a span. `key` must be a string
/// literal (or otherwise outlive the recorder); a null key means "absent".
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// One completed span. Name/category must be string literals (the recorder
/// stores the pointers, not copies — recording never allocates).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t start_ns = 0;     // steady_clock time_since_epoch
  uint64_t duration_ns = 0;
  TraceArg arg0;
  TraceArg arg1;
};

namespace internal {
struct TraceThreadLog;
}  // namespace internal

/// Collects spans from any number of threads into per-thread buffers.
/// Thread-safe for concurrent RecordSpan and export; a thread's buffer has
/// fixed capacity (events past it are counted as dropped, never resized).
class TraceRecorder {
 public:
  /// Default per-thread buffer: 64k events × 64 bytes = 4 MiB per
  /// recording thread, enough for every bundled workload.
  static constexpr size_t kDefaultCapacityPerThread = size_t{1} << 16;

  explicit TraceRecorder(
      size_t capacity_per_thread = kDefaultCapacityPerThread);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Appends one completed span for the calling thread. Lock-free after
  /// the thread's first call (which registers its buffer under a mutex).
  /// Timestamps are `steady_clock` nanoseconds as returned by `NowNs()`.
  void RecordSpan(const char* name, const char* category, uint64_t start_ns,
                  uint64_t duration_ns, TraceArg arg0 = TraceArg{},
                  TraceArg arg1 = TraceArg{});

  /// Total spans currently recorded across all threads.
  size_t event_count() const;

  /// Spans discarded because a thread's buffer was full.
  uint64_t dropped_events() const;

  /// Attaches a process-level label exported as an "M" (metadata)
  /// `process_labels` event — the channel run context rides on (active
  /// SIMD level, detected CPU features, ...). Labels show next to the
  /// process name in Perfetto. Thread-safe; duplicates are kept in call
  /// order.
  void AddProcessLabel(std::string label);

  /// Serializes the timeline as Chrome trace-event JSON: an object with a
  /// "traceEvents" array of "X" (complete) events plus "M" (metadata)
  /// thread-name events; "ts"/"dur" are microseconds relative to recorder
  /// construction. Safe to call while other threads are still recording
  /// (their unpublished tail is simply not included).
  std::string ToChromeJson() const;

  /// Copies out every published span across all threads, in per-thread
  /// recording order. The raw-event counterpart of `ToChromeJson` — the
  /// server's slow-request ring uses it to lift a per-request recorder's
  /// spans into its bounded buffer. Same concurrency contract as export.
  std::vector<TraceEvent> Snapshot() const;

  /// `steady_clock` time_since_epoch in nanoseconds — the time base every
  /// recorded span uses.
  static uint64_t NowNs();

 private:
  internal::TraceThreadLog* LogForThisThread();

  const size_t capacity_per_thread_;
  const uint64_t id_;        // process-unique, never reused
  const uint64_t epoch_ns_;  // NowNs() at construction; export time base
  mutable std::mutex logs_mutex_;
  std::vector<std::unique_ptr<internal::TraceThreadLog>> logs_;
  std::vector<std::string> process_labels_;  // guarded by logs_mutex_
};

/// Names the calling thread's track in every recorder it subsequently
/// registers with ("main", "pool-worker-3"). Threads that never call this
/// are exported as "thread-<tid>".
void SetCurrentThreadTraceName(std::string name);

/// RAII span recorded into `recorder` (no-op, no clock read, when it is
/// null). Name/category/arg keys must be string literals.
class ScopedTraceSpan {
 public:
  ScopedTraceSpan(TraceRecorder* recorder, const char* name,
                  const char* category = "span", TraceArg arg0 = TraceArg{},
                  TraceArg arg1 = TraceArg{})
      : recorder_(recorder),
        name_(name),
        category_(category),
        arg0_(arg0),
        arg1_(arg1) {
    if (recorder_ != nullptr) start_ns_ = TraceRecorder::NowNs();
  }
  ~ScopedTraceSpan() {
    if (recorder_ == nullptr) return;
    recorder_->RecordSpan(name_, category_, start_ns_,
                          TraceRecorder::NowNs() - start_ns_, arg0_, arg1_);
  }

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* category_;
  TraceArg arg0_;
  TraceArg arg1_;
  uint64_t start_ns_ = 0;
};

/// Writes `recorder.ToChromeJson()` to `path` (the `--trace_out` sink).
Status WriteTraceJson(const std::string& path, const TraceRecorder& recorder);

}  // namespace gter

#endif  // GTER_COMMON_TRACE_H_
