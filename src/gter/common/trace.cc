#include "gter/common/trace.h"

#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace gter {

namespace internal {

/// One thread's span buffer. Only the owning thread writes `events` and
/// `count`; readers (export) take the published prefix [0, count) after an
/// acquire load, so no lock is ever held while recording.
struct TraceThreadLog {
  explicit TraceThreadLog(size_t capacity) : events(capacity) {}

  uint64_t owner = 0;  // ThisThreadSerial() of the one writing thread
  uint32_t tid = 0;
  std::string name;  // fixed at registration
  std::vector<TraceEvent> events;  // capacity fixed up front, never resized
  std::atomic<size_t> count{0};
  std::atomic<uint64_t> dropped{0};
};

}  // namespace internal

namespace {

using internal::TraceThreadLog;

std::atomic<uint64_t> g_next_recorder_id{1};
std::atomic<uint64_t> g_next_thread_serial{1};

/// Process-unique id of the calling thread. Unlike std::thread::id it is
/// never reused, so a buffer found by it belongs to this thread alone.
uint64_t ThisThreadSerial() {
  thread_local const uint64_t serial =
      g_next_thread_serial.fetch_add(1, std::memory_order_relaxed);
  return serial;
}

/// Thread-name registered by SetCurrentThreadTraceName before the thread's
/// first span. Function-local static avoids init-order issues.
std::string& TlsThreadName() {
  thread_local std::string name;
  return name;
}

/// Per-thread cache of the buffer registered with recorder `recorder_id`.
/// Keyed by the process-unique recorder id (not the pointer), so a new
/// recorder at a recycled address can never alias a stale cache entry.
struct TlsLogCache {
  uint64_t recorder_id = 0;
  TraceThreadLog* log = nullptr;
};
thread_local TlsLogCache tls_log_cache;

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

/// Microseconds with sub-ns-rounding stability: trace viewers take "ts"
/// and "dur" as (fractional) microseconds.
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  *out += buf;
}

void AppendDouble(std::string* out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity_per_thread)
    : capacity_per_thread_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(NowNs()) {}

TraceRecorder::~TraceRecorder() = default;

TraceThreadLog* TraceRecorder::LogForThisThread() {
  if (tls_log_cache.recorder_id == id_) return tls_log_cache.log;
  const uint64_t me = ThisThreadSerial();
  std::lock_guard<std::mutex> lock(logs_mutex_);
  // A pool worker that runs chunks of two runs alternates between their
  // recorders; it gets its own buffer back here instead of a new one per
  // switch.
  for (const auto& log : logs_) {
    if (log->owner == me) {
      tls_log_cache = {id_, log.get()};
      return log.get();
    }
  }
  auto log = std::make_unique<TraceThreadLog>(capacity_per_thread_);
  log->owner = me;
  log->tid = static_cast<uint32_t>(logs_.size());
  log->name = TlsThreadName();
  if (log->name.empty()) log->name = "thread-" + std::to_string(log->tid);
  TraceThreadLog* raw = log.get();
  logs_.push_back(std::move(log));
  tls_log_cache = {id_, raw};
  return raw;
}

void TraceRecorder::RecordSpan(const char* name, const char* category,
                               uint64_t start_ns, uint64_t duration_ns,
                               TraceArg arg0, TraceArg arg1) {
  TraceThreadLog* log = LogForThisThread();
  size_t n = log->count.load(std::memory_order_relaxed);
  if (n >= log->events.size()) {
    log->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = log->events[n];
  e.name = name;
  e.category = category;
  e.start_ns = start_ns;
  e.duration_ns = duration_ns;
  e.arg0 = arg0;
  e.arg1 = arg1;
  log->count.store(n + 1, std::memory_order_release);
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  size_t total = 0;
  for (const auto& log : logs_) {
    total += log->count.load(std::memory_order_acquire);
  }
  return total;
}

void TraceRecorder::AddProcessLabel(std::string label) {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  process_labels_.push_back(std::move(label));
}

uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  uint64_t total = 0;
  for (const auto& log : logs_) {
    total += log->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceRecorder::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };

  comma();
  out +=
      "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"gter\"}}";

  if (!process_labels_.empty()) {
    // Chrome's process_labels metadata takes one comma-joined string.
    comma();
    out +=
        "{\"ph\": \"M\", \"name\": \"process_labels\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"labels\": \"";
    for (size_t i = 0; i < process_labels_.size(); ++i) {
      if (i != 0) out += ", ";
      AppendEscaped(&out, process_labels_[i]);
    }
    out += "\"}}";
  }

  for (const auto& log : logs_) {
    comma();
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": ";
    out += std::to_string(log->tid);
    out += ", \"args\": {\"name\": \"";
    AppendEscaped(&out, log->name);
    out += "\"}}";
  }

  for (const auto& log : logs_) {
    const size_t n = log->count.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const TraceEvent& e = log->events[i];
      comma();
      out += "{\"ph\": \"X\", \"name\": \"";
      AppendEscaped(&out, e.name);
      out += "\", \"cat\": \"";
      AppendEscaped(&out, e.category);
      out += "\", \"pid\": 1, \"tid\": ";
      out += std::to_string(log->tid);
      out += ", \"ts\": ";
      // Spans are recorded after construction, but a concurrent writer's
      // clock read may race the epoch read; clamp instead of underflowing.
      AppendMicros(&out, e.start_ns >= epoch_ns_ ? e.start_ns - epoch_ns_ : 0);
      out += ", \"dur\": ";
      AppendMicros(&out, e.duration_ns);
      if (e.arg0.key != nullptr || e.arg1.key != nullptr) {
        out += ", \"args\": {";
        bool first_arg = true;
        for (const TraceArg* arg : {&e.arg0, &e.arg1}) {
          if (arg->key == nullptr) continue;
          if (!first_arg) out += ", ";
          first_arg = false;
          out += "\"";
          AppendEscaped(&out, arg->key);
          out += "\": ";
          AppendDouble(&out, arg->value);
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n]\n}\n";
  return out;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  std::vector<TraceEvent> out;
  for (const auto& log : logs_) {
    const size_t n = log->count.load(std::memory_order_acquire);
    out.insert(out.end(), log->events.begin(), log->events.begin() + n);
  }
  return out;
}

uint64_t TraceRecorder::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetCurrentThreadTraceName(std::string name) {
  TlsThreadName() = std::move(name);
}

Status WriteTraceJson(const std::string& path,
                      const TraceRecorder& recorder) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output '" + path + "'");
  }
  std::string json = recorder.ToChromeJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::IOError("short write to trace output '" + path + "'");
  }
  return Status::OK();
}

}  // namespace gter
