#ifndef GTER_SERVER_CLIENT_H_
#define GTER_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "gter/common/json.h"
#include "gter/common/status.h"

namespace gter {

/// Blocking NDJSON client for gterd. One TCP connection; requests get
/// sequential integer ids. Not thread-safe — one client per thread (the
/// load generator opens one per simulated connection).
class GterdClient {
 public:
  GterdClient() = default;
  ~GterdClient();

  GterdClient(GterdClient&& other) noexcept;
  GterdClient& operator=(GterdClient&& other) noexcept;
  GterdClient(const GterdClient&) = delete;
  GterdClient& operator=(const GterdClient&) = delete;

  static Result<GterdClient> Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Issues `method(params)` and blocks for the matching response.
  /// `deadline_ms > 0` attaches a per-request deadline. A transport
  /// failure returns IOError; a server error response comes back as a
  /// Status carrying the server's code and message (so a tripped deadline
  /// is observable as StatusCode::kDeadlineExceeded).
  Result<JsonValue> Call(const std::string& method, JsonValue params,
                         int64_t deadline_ms = 0);

  /// Protocol-test hooks: send an arbitrary line (newline appended) and
  /// read one raw response frame.
  Status SendRaw(std::string_view line);
  Result<JsonValue> ReadResponseFrame();

  /// One-shot HTTP/1.0 GET against the server's observability listener
  /// (DESIGN.md §4c): connects, issues `GET <path>`, reads until the peer
  /// closes, and returns the response *body*. Any status other than
  /// 200 OK is an error carrying the status line. Used by the tests to
  /// scrape /metrics; not a general HTTP client.
  static Result<std::string> HttpGet(const std::string& host, uint16_t port,
                                     const std::string& path);

 private:
  Status WriteAll(std::string_view data);
  /// Reads one newline-terminated line into `*line` (without the newline).
  Status ReadLine(std::string* line);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::string buffer_;  // bytes read past the last returned line
};

}  // namespace gter

#endif  // GTER_SERVER_CLIENT_H_
