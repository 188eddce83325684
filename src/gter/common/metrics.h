#ifndef GTER_COMMON_METRICS_H_
#define GTER_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "gter/common/status.h"
#include "gter/common/trace.h"

namespace gter {

/// Pipeline-wide observability substrate (see DESIGN.md §"Observability").
///
/// A `MetricsRegistry` collects named counters, gauges, log-scale
/// histograms, and aggregated stage timers from every pipeline stage that
/// was handed one in the `metrics` field of its `ExecContext`. There is no
/// other way in: a stage whose context carries no registry records nothing.
///
/// Contract: with a null registry, every instrumentation point collapses to
/// one null-pointer test — no clock reads, no locks, no allocation — so the
/// hot paths keep their uninstrumented cost.
///
/// Naming convention: lowercase `stage/metric` slugs (`rss/walks_run`,
/// `cliquerank/dense_product`). Counters count events, gauges record
/// last-observed magnitudes (bytes, sizes), timers aggregate {count,
/// seconds} per stage name, histograms bucket values by powers of two.

/// Aggregated wall time of one named stage.
struct TimerStat {
  uint64_t count = 0;
  double seconds = 0.0;
};

/// Log-scale (base-2 bucket) histogram accumulator. Cheap value type:
/// stages build one per worker chunk lock-free and merge it into the
/// registry once per chunk.
struct Histogram {
  /// Buckets span 2^-32 .. 2^32: bucket i counts values in
  /// [2^(i-33), 2^(i-32)); bucket 0 additionally absorbs v ≤ 2^-32 (and
  /// non-positive values), the last bucket absorbs v ≥ 2^32.
  static constexpr size_t kNumBuckets = 64;
  /// floor(log2) offset mapping value 1.0 to bucket 32.
  static constexpr int kBucketOfOne = 32;

  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid when count > 0
  double max = 0.0;  // valid when count > 0
  std::array<uint64_t, kNumBuckets> buckets{};

  void Observe(double value);
  void Merge(const Histogram& other);

  /// Estimated q-quantile (q in [0, 1]), by linear interpolation inside
  /// the log-scale bucket holding the q·count-th observation, with the
  /// interpolation span clamped to the exact [min, max] envelope — so
  /// single-valued histograms are exact, values uniform across one bucket
  /// interpolate exactly instead of flat-clamping at the envelope edge,
  /// and the estimation error is bounded by one bucket's width.
  /// Returns 0 when the histogram is empty.
  double Quantile(double q) const;

  /// Exclusive upper bound of bucket `i` (2^(i-32)).
  static double BucketUpperBound(size_t i);

  /// Inclusive lower bound of bucket `i` (2^(i-33); bucket 0 starts at 0
  /// because it also absorbs non-positive values).
  static double BucketLowerBound(size_t i);
};

/// Sliding-window log-scale histogram: a ring of `kNumSlots` epoch-rotated
/// sub-histograms covering `window_seconds` of wall time in total, so a
/// snapshot reflects only recent observations (live serving percentiles)
/// while old slots are recycled in place.
///
/// The record path takes no lock: plain atomic adds into the slot whose
/// epoch equals the record's, plus one CAS to claim a slot whose epoch has
/// lapsed. The winner zeroes the slot and only then publishes the new
/// epoch; recorders of that epoch wait for it before adding, so no record
/// is lost to the reset. A slot only moves forward: a record older than
/// its slot's epoch (at least a whole window behind it) is dropped, as no
/// window that slot can still serve contains it. The one remaining loss is
/// a recorder stalled for a whole window between reading the epoch and
/// adding, while another recorder recycles the slot. Snapshots derive each
/// slot's count from its bucket array (never a separately-torn counter),
/// so the Prometheus invariant `+Inf bucket == _count` holds for every
/// snapshot.
///
/// `RecordAt`/`SnapshotAt` take an explicit steady-clock timestamp — the
/// production path (`Record`/`Snapshot`) reads the clock once; tests
/// inject timestamps to drive rotation deterministically.
class SlidingHistogram {
 public:
  /// Number of ring slots; each spans window_seconds / kNumSlots.
  static constexpr size_t kNumSlots = 8;

  explicit SlidingHistogram(double window_seconds = 60.0);
  SlidingHistogram(const SlidingHistogram&) = delete;
  SlidingHistogram& operator=(const SlidingHistogram&) = delete;

  /// Records one observation at the current steady-clock time.
  void Record(double value);

  /// Records one observation as of steady-clock time `now_ns` (test hook).
  /// An observation older than its slot's epoch is dropped.
  void RecordAt(double value, uint64_t now_ns);

  /// Merges every slot still inside the window into one plain Histogram.
  Histogram Snapshot() const;

  /// Snapshot as of steady-clock time `now_ns` (test hook).
  Histogram SnapshotAt(uint64_t now_ns) const;

  double window_seconds() const { return window_seconds_; }

 private:
  struct Slot {
    std::atomic<uint64_t> epoch{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets{};
  };

  double window_seconds_;
  uint64_t slot_ns_;
  std::array<Slot, kNumSlots> slots_;
};

/// Thread-safe metrics registry. All methods may be called concurrently.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to counter `name`, creating it at zero first.
  void AddCounter(std::string_view name, uint64_t delta = 1);

  /// Ensures counter `name` exists (at zero) so emitted JSON has a stable
  /// schema even for stages that did not run.
  void DeclareCounter(std::string_view name);

  /// Sets gauge `name` to `value` (last write wins).
  void SetGauge(std::string_view name, double value);

  /// Records one observation into log-scale histogram `name`.
  void Observe(std::string_view name, double value);

  /// Merges a locally-accumulated histogram into `name` under one lock —
  /// the bulk path for per-chunk accumulation in parallel loops.
  void MergeHistogram(std::string_view name, const Histogram& local);

  /// Adds one completed timing of stage `name` (ScopedTimer's sink).
  void RecordTime(std::string_view name, double seconds);

  /// Create-or-get the sliding histogram `name` (the pointer is stable
  /// for the registry's lifetime; recording through it is lock-free).
  /// `window_seconds` applies only on first creation.
  SlidingHistogram* Sliding(std::string_view name,
                            double window_seconds = 60.0);

  /// Point reads (zero / empty when the metric was never touched).
  uint64_t Counter(std::string_view name) const;
  double Gauge(std::string_view name) const;
  TimerStat Timer(std::string_view name) const;
  Histogram HistogramOf(std::string_view name) const;

  /// Windowed snapshot of sliding histogram `name` (empty when absent).
  Histogram SlidingSnapshot(std::string_view name) const;

  /// Whole-section snapshots for exposition writers (Prometheus, /varz):
  /// copies taken under the registry lock; sliding histograms are
  /// materialized as plain windowed Histograms.
  std::map<std::string, uint64_t, std::less<>> CountersSnapshot() const;
  std::map<std::string, double, std::less<>> GaugesSnapshot() const;
  std::map<std::string, TimerStat, std::less<>> TimersSnapshot() const;
  std::map<std::string, Histogram, std::less<>> HistogramsSnapshot() const;
  std::map<std::string, Histogram, std::less<>> SlidingSnapshots() const;

  /// Serializes every metric as a JSON object with top-level sections
  /// "counters", "gauges", "timers", "histograms" and — when any sliding
  /// histogram exists — "sliding" (windowed snapshots, same schema as
  /// "histograms"). Keys are sorted, so the output is deterministic for a
  /// given state.
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  // std::map keeps ToJson() key order deterministic; std::less<> enables
  // string_view lookups without temporary strings.
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, TimerStat, std::less<>> timers_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  // unique_ptr keeps Sliding()'s returned pointers stable across inserts.
  std::map<std::string, std::unique_ptr<SlidingHistogram>, std::less<>>
      sliding_;
};

/// RAII stage timer with two sinks: records elapsed wall time into
/// `registry` under `name`, and emits the same interval into `recorder` as
/// a trace span (category "stage", optional numeric args), off a single
/// shared pair of clock reads so metrics and traces can never disagree on
/// a stage boundary. Either sink may be null; with both null, constructor
/// and destructor are two pointer tests each — no clock is read. Stages
/// pass their context's sinks: `ScopedTimer t(ctx.metrics, ctx.trace, ...)`.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, TraceRecorder* recorder,
              const char* name, TraceArg arg0 = TraceArg{},
              TraceArg arg1 = TraceArg{})
      : registry_(registry),
        recorder_(recorder),
        name_(name),
        arg0_(arg0),
        arg1_(arg1) {
    if (registry_ != nullptr || recorder_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() {
    if (registry_ == nullptr && recorder_ == nullptr) return;
    const Clock::time_point end = Clock::now();  // one read, both sinks
    if (registry_ != nullptr) {
      registry_->RecordTime(
          name_, std::chrono::duration<double>(end - start_).count());
    }
    if (recorder_ != nullptr) {
      const uint64_t start_ns = ToNs(start_);
      recorder_->RecordSpan(name_, "stage", start_ns, ToNs(end) - start_ns,
                            arg0_, arg1_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  static uint64_t ToNs(Clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }
  MetricsRegistry* registry_;
  TraceRecorder* recorder_;
  const char* name_;
  TraceArg arg0_;
  TraceArg arg1_;
  Clock::time_point start_;
};

/// Writes `registry.ToJson()` to `path` (the CLI/bench `--metrics_out`
/// sink).
Status WriteMetricsJson(const std::string& path,
                        const MetricsRegistry& registry);

}  // namespace gter

#endif  // GTER_COMMON_METRICS_H_
