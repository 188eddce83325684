#include "gter/common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

namespace gter {
namespace {

/// Set in a slot's epoch while the recorder that claimed the slot zeroes
/// it. Recorders wait for the epoch to clear; snapshots skip the slot, as
/// the flagged value lies past every window.
constexpr uint64_t kResetting = uint64_t{1} << 63;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bucket index for a value: floor(log2(v)) shifted so 1.0 lands at
/// kBucketOfOne, clamped to the array. frexp avoids a log call.
size_t BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // non-positive (and NaN) → lowest bucket
  int exp = 0;
  std::frexp(value, &exp);  // value = m·2^exp, m ∈ [0.5, 1)
  long idx = static_cast<long>(exp) - 1 + Histogram::kBucketOfOne;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(Histogram::kNumBuckets)) {
    return Histogram::kNumBuckets - 1;
  }
  return static_cast<size_t>(idx);
}

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {  // JSON has no inf/nan literals
    *out += value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void AppendUint(std::string* out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendHistogramJson(std::string* o, const Histogram& h) {
  *o += "{\"count\": ";
  AppendUint(o, h.count);
  *o += ", \"sum\": ";
  AppendDouble(o, h.sum);
  if (h.count > 0) {
    *o += ", \"min\": ";
    AppendDouble(o, h.min);
    *o += ", \"max\": ";
    AppendDouble(o, h.max);
    *o += ", \"p50\": ";
    AppendDouble(o, h.Quantile(0.50));
    *o += ", \"p95\": ";
    AppendDouble(o, h.Quantile(0.95));
    *o += ", \"p99\": ";
    AppendDouble(o, h.Quantile(0.99));
  }
  *o += ", \"buckets\": [";
  bool first = true;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.buckets[i] == 0) continue;  // sparse emission
    if (!first) *o += ", ";
    first = false;
    *o += "{\"le\": ";
    AppendDouble(o, Histogram::BucketUpperBound(i));
    *o += ", \"count\": ";
    AppendUint(o, h.buckets[i]);
    *o += "}";
  }
  *o += "]}";
}

/// Emits `"name": <value>` sequences for one section.
template <typename Map, typename EmitValue>
void AppendSection(std::string* out, const char* section, const Map& map,
                   EmitValue emit_value) {
  *out += "  \"";
  *out += section;
  *out += "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) *out += ',';
    first = false;
    *out += "\n    \"";
    AppendEscaped(out, name);
    *out += "\": ";
    emit_value(out, value);
  }
  *out += first ? "}" : "\n  }";
}

}  // namespace

void Histogram::Observe(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    if (value < min) min = value;
    if (value > max) max = value;
  }
  ++count;
  sum += value;
  ++buckets[BucketIndex(value)];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

double Histogram::BucketUpperBound(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) - kBucketOfOne + 1);
}

double Histogram::BucketLowerBound(size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - kBucketOfOne);
}

double Histogram::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Walk the buckets to the one containing the q·count-th observation and
  // interpolate linearly inside it: for observations spread uniformly
  // within a bucket this is exact, and in general the error is bounded by
  // the bucket's width (a factor of 2 on log-scale buckets).
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cumulative + in_bucket >= target) {
      const double fraction = (target - cumulative) / in_bucket;
      // Interpolate over the bucket span clamped to the recorded
      // [min, max] envelope. Raw bucket bounds only lie outside the data
      // in the first/last populated bucket, where interpolating over the
      // full power-of-two span used to push the estimate past min/max
      // and flat-clamp it there; the clamped span keeps the estimate
      // exact for uniformly-spread observations.
      const double lo = std::max(BucketLowerBound(i), min);
      const double hi = std::min(BucketUpperBound(i), max);
      if (hi <= lo) return lo;
      return lo + fraction * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return max;  // unreachable for a consistent histogram
}

SlidingHistogram::SlidingHistogram(double window_seconds)
    : window_seconds_(window_seconds > 0.0 ? window_seconds : 60.0),
      slot_ns_(static_cast<uint64_t>(window_seconds_ * 1e9 /
                                     static_cast<double>(kNumSlots))) {
  if (slot_ns_ == 0) slot_ns_ = 1;
  for (Slot& slot : slots_) {
    slot.min.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    slot.max.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
  }
}

void SlidingHistogram::Record(double value) {
  RecordAt(value, SteadyNowNs());
}

void SlidingHistogram::RecordAt(double value, uint64_t now_ns) {
  const uint64_t epoch = now_ns / slot_ns_;
  Slot& slot = slots_[epoch % kNumSlots];
  uint64_t seen = slot.epoch.load(std::memory_order_acquire);
  while (seen != epoch) {
    // A slot only moves forward: a record older than the slot's tenancy,
    // or than the tenancy being installed, is dropped.
    if ((seen & ~kResetting) > epoch) return;
    if ((seen & kResetting) != 0) {
      std::this_thread::yield();
      seen = slot.epoch.load(std::memory_order_acquire);
      continue;
    }
    // The slot's tenancy has lapsed. The CAS winner zeroes the slot and
    // only then publishes its epoch, so no record of the new epoch lands
    // before the reset; a loser reloads `seen` and re-checks.
    if (slot.epoch.compare_exchange_weak(seen, epoch | kResetting,
                                         std::memory_order_acq_rel)) {
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      slot.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      for (auto& bucket : slot.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      slot.epoch.store(epoch, std::memory_order_release);
      seen = epoch;
    }
  }
  slot.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
  double cur = slot.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.min.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
  }
  cur = slot.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.max.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
  }
}

Histogram SlidingHistogram::Snapshot() const {
  return SnapshotAt(SteadyNowNs());
}

Histogram SlidingHistogram::SnapshotAt(uint64_t now_ns) const {
  const uint64_t current_epoch = now_ns / slot_ns_;
  const uint64_t oldest_epoch =
      current_epoch >= kNumSlots - 1 ? current_epoch - (kNumSlots - 1) : 0;
  Histogram merged;
  for (const Slot& slot : slots_) {
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch < oldest_epoch || epoch > current_epoch) continue;
    Histogram part;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      part.buckets[i] = slot.buckets[i].load(std::memory_order_relaxed);
      part.count += part.buckets[i];
    }
    if (part.count == 0) continue;
    part.sum = slot.sum.load(std::memory_order_relaxed);
    part.min = slot.min.load(std::memory_order_relaxed);
    part.max = slot.max.load(std::memory_order_relaxed);
    // A reset racing this read can tear min/max/sum; re-derive a sane
    // envelope from the bucket array (which count was derived from) so
    // Quantile()'s clamping invariants hold for every snapshot.
    if (!std::isfinite(part.min) || !std::isfinite(part.max) ||
        part.min > part.max) {
      size_t first = Histogram::kNumBuckets;
      size_t last = 0;
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        if (part.buckets[i] == 0) continue;
        if (first == Histogram::kNumBuckets) first = i;
        last = i;
      }
      part.min = Histogram::BucketLowerBound(first);
      part.max = Histogram::BucketUpperBound(last);
    }
    if (!std::isfinite(part.sum)) {
      part.sum = part.min * static_cast<double>(part.count);
    }
    merged.Merge(part);
  }
  return merged;
}

void MetricsRegistry::AddCounter(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::DeclareCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.emplace(std::string(name), 0);
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.Observe(value);
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const Histogram& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.Merge(local);
}

void MetricsRegistry::RecordTime(std::string_view name, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), TimerStat{}).first;
  }
  ++it->second.count;
  it->second.seconds += seconds;
}

SlidingHistogram* MetricsRegistry::Sliding(std::string_view name,
                                           double window_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sliding_.find(name);
  if (it == sliding_.end()) {
    it = sliding_
             .emplace(std::string(name),
                      std::make_unique<SlidingHistogram>(window_seconds))
             .first;
  }
  return it->second.get();
}

Histogram MetricsRegistry::SlidingSnapshot(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sliding_.find(name);
  return it == sliding_.end() ? Histogram{} : it->second->Snapshot();
}

uint64_t MetricsRegistry::Counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::Gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

TimerStat MetricsRegistry::Timer(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

Histogram MetricsRegistry::HistogramOf(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::map<std::string, uint64_t, std::less<>> MetricsRegistry::CountersSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::map<std::string, double, std::less<>> MetricsRegistry::GaugesSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_;
}

std::map<std::string, TimerStat, std::less<>> MetricsRegistry::TimersSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return timers_;
}

std::map<std::string, Histogram, std::less<>>
MetricsRegistry::HistogramsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_;
}

std::map<std::string, Histogram, std::less<>>
MetricsRegistry::SlidingSnapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Histogram, std::less<>> out;
  for (const auto& [name, sliding] : sliding_) {
    out.emplace(name, sliding->Snapshot());
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n";
  AppendSection(&out, "counters", counters_,
                [](std::string* o, uint64_t v) { AppendUint(o, v); });
  out += ",\n";
  AppendSection(&out, "gauges", gauges_,
                [](std::string* o, double v) { AppendDouble(o, v); });
  out += ",\n";
  AppendSection(&out, "timers", timers_,
                [](std::string* o, const TimerStat& t) {
                  *o += "{\"count\": ";
                  AppendUint(o, t.count);
                  *o += ", \"seconds\": ";
                  AppendDouble(o, t.seconds);
                  *o += "}";
                });
  out += ",\n";
  AppendSection(&out, "histograms", histograms_, AppendHistogramJson);
  if (!sliding_.empty()) {
    // Windowed snapshots — present only when a server declared sliding
    // histograms, so batch-run metrics JSON keeps its historical schema
    // (run_report's FromJson skips unknown sections either way).
    std::map<std::string, Histogram, std::less<>> snapshots;
    for (const auto& [name, sliding] : sliding_) {
      snapshots.emplace(name, sliding->Snapshot());
    }
    out += ",\n";
    AppendSection(&out, "sliding", snapshots, AppendHistogramJson);
  }
  out += "\n}\n";
  return out;
}

Status WriteMetricsJson(const std::string& path,
                        const MetricsRegistry& registry) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics output '" + path + "'");
  }
  std::string json = registry.ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::IOError("short write to metrics output '" + path + "'");
  }
  return Status::OK();
}

}  // namespace gter
