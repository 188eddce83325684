#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

// Open-loop NDJSON load generator for gterd.
//
// Every request has a due time fixed before the run starts; the generator
// sends it at that time whether or not earlier requests were answered, and
// times it from the due time, so a server stall also shows in the latency
// of every request that was due during it. One thread owns each connection.
//
// A connection may be marked in-order: it then sends a request only after
// the previous one on it was answered (still timed from the due time).
// gterd runs the requests of one connection concurrently, so in-order is
// how an ingest stream keeps its order.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request. `params` is the JSON object text of the request's
/// params; the generator adds the id (the request's schedule index).
struct ScheduledRequest {
  int64_t due_ns = 0;  // offset from the phase start
  uint32_t conn = 0;
  std::string method;
  std::string params;
  int64_t deadline_ms = 0;  // 0 = none
};

/// Outcome of one request.
struct RequestOutcome {
  int64_t sent_ns = -1;   // offset from the phase start; -1 = never sent
  int64_t done_ns = -1;   // offset from the phase start; -1 = no response
  bool ok = false;        // response parsed and carried "ok": true
  std::string response;   // the raw response line (when kept)

  /// Latency from the due time in ms; a request without a response has none.
  double LatencyMs(int64_t due_ns) const {
    return static_cast<double>(done_ns - due_ns) / 1e6;
  }
};

struct LoadgenOptions {
  uint16_t port = 0;
  uint32_t connections = 1;
  /// Connection indices that send in order.
  std::vector<uint32_t> in_order;
  /// After the last due time, wait this long for responses; anything still
  /// unanswered counts as lost.
  int64_t grace_ns = 3'000'000'000;
  bool keep_responses = false;
};

/// Result of one phase.
struct LoadgenResult {
  std::vector<RequestOutcome> outcomes;  // by schedule index
  /// Sent-but-unanswered plus due-but-unsent requests when the last
  /// request fell due (the backlog a phase ends with).
  uint64_t backlog_at_end = 0;
  /// A connection saw the server close or fail.
  bool server_lost = false;
};

/// Runs `schedule` against 127.0.0.1:`options.port` and returns when every
/// request is answered, lost, or past the grace period.
LoadgenResult RunOpenLoop(const std::vector<ScheduledRequest>& schedule,
                          const LoadgenOptions& options);

/// Sends one request on a fresh connection and waits up to `timeout_ms` for
/// its response line. Returns false on any transport failure.
bool RequestOnce(uint16_t port, const std::string& method,
                 const std::string& params, int timeout_ms,
                 std::string* response);

/// GET `path` from the HTTP listener on `port`; returns the body, or false.
bool HttpGet(uint16_t port, const std::string& path, int timeout_ms,
             std::string* body);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
