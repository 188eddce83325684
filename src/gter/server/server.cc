#include "gter/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "gter/common/logging.h"
#include "gter/common/prom.h"

namespace gter {
namespace {

constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;
constexpr uint64_t kMetricsListenId = 2;

/// Per-request trace buffer for slow-request capture: small — a request's
/// own spans, not a whole run's.
constexpr size_t kSlowTraceCapacity = 512;

/// An HTTP request head larger than this answers 431 and closes.
constexpr size_t kMaxHttpHeadBytes = 16384;

/// Sliding-histogram slot names; the last entry absorbs unknown methods.
constexpr const char* kMethodSlotNames[] = {
    "pair_score", "resolve",    "add_record", "stats",
    "debug_sleep", "debug_slow", "unknown",
};

size_t MethodSlot(const std::string& method) {
  for (size_t i = 0; i + 1 < std::size(kMethodSlotNames); ++i) {
    if (method == kMethodSlotNames[i]) return i;
  }
  return std::size(kMethodSlotNames) - 1;
}

/// Creates a non-blocking listening socket bound to `bind_address:port`,
/// returning the fd and the actually-bound port (resolves port 0).
Status BindAndListen(const std::string& bind_address, uint16_t port,
                     int* out_fd, uint16_t* out_port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  *out_fd = fd;  // owned by the caller from here (closed by Stop)
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(fd, SOMAXCONN) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  *out_port = ntohs(addr.sin_port);
  return Status::OK();
}

}  // namespace

GterdServer::GterdServer(ResolutionService* service,
                         GterdServerOptions options, const ExecContext& ctx)
    : service_(service),
      options_(std::move(options)),
      base_ctx_(ctx),
      pool_(ctx.pool != nullptr ? ctx.pool : ThreadPool::Default()),
      start_time_(std::chrono::steady_clock::now()) {
  metrics_ = base_ctx_.metrics;
  if (metrics_ == nullptr) {
    // The observability listener and sliding latency histograms always
    // have a registry to land in, even when the embedding context carries
    // none (tests, minimal embedders).
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  base_ctx_.metrics = metrics_;  // request handlers record into the same one
  for (size_t i = 0; i < kNumMethodSlots; ++i) {
    const std::string base = std::string("server/") + kMethodSlotNames[i];
    queue_us_slidings_[i] = metrics_->Sliding(
        base + "/queue_us", options_.sliding_window_seconds);
    work_us_slidings_[i] = metrics_->Sliding(
        base + "/work_us", options_.sliding_window_seconds);
  }
}

Result<std::unique_ptr<GterdServer>> GterdServer::Start(
    ResolutionService* service, GterdServerOptions options,
    const ExecContext& ctx) {
  std::unique_ptr<GterdServer> server(
      new GterdServer(service, std::move(options), ctx));
  GTER_RETURN_IF_ERROR(server->Init());
  server->loop_thread_ = std::thread([raw = server.get()] { raw->Loop(); });
  return server;
}

Status GterdServer::Init() {
  GTER_RETURN_IF_ERROR(
      BindAndListen(options_.bind_address, options_.port, &listen_fd_, &port_));
  if (options_.metrics_port >= 0) {
    GTER_RETURN_IF_ERROR(
        BindAndListen(options_.bind_address,
                      static_cast<uint16_t>(options_.metrics_port),
                      &metrics_listen_fd_, &metrics_port_));
  }
  if (!options_.access_log_path.empty()) {
    auto log = AccessLog::Open(options_.access_log_path);
    if (!log.ok()) return log.status();
    access_log_ = std::move(log).value();
  }

  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  if (metrics_listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.u64 = kMetricsListenId;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_, &ev) != 0) {
      return Status::IOError(std::string("epoll_ctl(metrics): ") +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

GterdServer::~GterdServer() { Stop(); }

void GterdServer::Stop() {
  if (stopped_) return;
  // Init() may have failed before the loop thread existed.
  if (loop_thread_.joinable()) {
    stopping_.store(true, std::memory_order_release);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
    loop_thread_.join();
  }
  stopped_ = true;
  // The loop is gone: we are the only thread touching conns_. Cancel
  // whatever is still running, then wait for the workers to unwind before
  // closing the fds they signal through.
  for (auto& [id, conn] : conns_) {
    if (conn->session != nullptr) conn->session->CancelInFlight();
  }
  pool_->Wait(&requests_);
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.clear();
  }
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  conns_.clear();
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  if (metrics_listen_fd_ >= 0) close(metrics_listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = metrics_listen_fd_ = -1;
  // Last chance to see what was slow before the ring evaporates: one
  // summary line per captured request (`debug_slow` serves the full spans
  // while the daemon is up).
  std::lock_guard<std::mutex> lock(slow_mutex_);
  for (const SlowRequestRecord& rec : slow_ring_) {
    GTER_LOG(Info) << "gterd: slow request id=" << rec.request_id
                   << " method=" << rec.method << " status=" << rec.status
                   << " queue_us=" << rec.queue_us
                   << " work_us=" << rec.work_us
                   << " spans=" << rec.spans.size();
  }
}

void GterdServer::Loop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      GTER_LOG(Error) << "gterd: epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptNew(listen_fd_, /*http=*/false);
      } else if (id == kMetricsListenId) {
        AcceptNew(metrics_listen_fd_, /*http=*/true);
      } else if (id == kWakeId) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
      } else {
        HandleConnEvent(id, events[i].events);
      }
    }
  }
}

void GterdServer::AcceptNew(int listen_fd, bool http) {
  while (true) {
    int fd = accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      GTER_LOG(Warning) << "gterd: accept4: " << std::strerror(errno);
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = id;
    conn->http = http;
    if (!http) conn->session = std::make_unique<Session>(this, id);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      GTER_LOG(Warning) << "gterd: epoll_ctl(conn): " << std::strerror(errno);
      close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void GterdServer::HandleConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // already closed this wakeup
  Connection* conn = it->second.get();

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    if (conn->session != nullptr) conn->session->CancelInFlight();
    CloseConnection(conn_id);
    return;
  }

  if ((events & EPOLLIN) != 0 && !conn->closing) {
    char buf[16384];
    while (true) {
      ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->read_buffer.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        // Orderly disconnect. Anything still executing for this client is
        // abandoned work: trip its tokens so it unwinds as Cancelled.
        if (conn->session != nullptr) conn->session->CancelInFlight();
        CloseConnection(conn_id);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (conn->session != nullptr) conn->session->CancelInFlight();
      CloseConnection(conn_id);
      return;
    }
    if (conn->http) {
      HandleHttp(conn);
    } else if (!conn->session->ConsumeFrames(&conn->read_buffer,
                                             &conn->write_buffer)) {
      conn->closing = true;
      conn->read_buffer.clear();
    } else if (conn->read_buffer.size() > options_.max_frame_bytes) {
      // No newline within the frame budget: the stream cannot be re-synced.
      conn->write_buffer.append(FormatGterdError(
          JsonValue::MakeNull(),
          Status::InvalidArgument(
              "request frame exceeds " +
              std::to_string(options_.max_frame_bytes) + " bytes")));
      conn->closing = true;
      conn->read_buffer.clear();
    }
  }
  FlushWrites(conn);  // may erase the connection
}

void GterdServer::HandleHttp(Connection* conn) {
  // Wait for the full request head (we never read a body: every endpoint
  // is a GET). Tolerate bare-LF clients.
  size_t head_end = conn->read_buffer.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    head_end = conn->read_buffer.find("\n\n");
  }
  if (head_end == std::string::npos) {
    if (conn->read_buffer.size() > kMaxHttpHeadBytes) {
      conn->write_buffer.append(
          "HTTP/1.0 431 Request Header Fields Too Large\r\n"
          "Connection: close\r\n\r\n");
      conn->closing = true;
      conn->read_buffer.clear();
    }
    return;
  }

  const size_t line_end = conn->read_buffer.find_first_of("\r\n");
  const std::string request_line = conn->read_buffer.substr(0, line_end);
  conn->read_buffer.clear();

  const size_t method_end = request_line.find(' ');
  std::string method;
  std::string path;
  if (method_end != std::string::npos) {
    method = request_line.substr(0, method_end);
    const size_t path_end = request_line.find(' ', method_end + 1);
    path = request_line.substr(method_end + 1,
                               path_end == std::string::npos
                                   ? std::string::npos
                                   : path_end - method_end - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
  }

  const auto respond = [conn](const char* status_line,
                              const char* content_type, std::string body) {
    conn->write_buffer.append("HTTP/1.0 ");
    conn->write_buffer.append(status_line);
    conn->write_buffer.append("\r\nContent-Type: ");
    conn->write_buffer.append(content_type);
    conn->write_buffer.append("\r\nContent-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n");
    conn->write_buffer.append(body);
  };

  if (method != "GET") {
    respond("405 Method Not Allowed", "text/plain; charset=utf-8",
            "method not allowed\n");
  } else if (path == "/metrics") {
    metrics_->SetGauge(
        "server/uptime_s",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count());
    respond("200 OK", "text/plain; version=0.0.4; charset=utf-8",
            RenderPrometheusText(*metrics_));
  } else if (path == "/healthz") {
    respond("200 OK", "text/plain; charset=utf-8", "ok\n");
  } else if (path == "/varz") {
    respond("200 OK", "application/json", metrics_->ToJson());
  } else {
    respond("404 Not Found", "text/plain; charset=utf-8", "not found\n");
  }
  conn->closing = true;
}

void GterdServer::FlushWrites(Connection* conn) {
  while (!conn->write_buffer.empty()) {
    ssize_t n = send(conn->fd, conn->write_buffer.data(),
                     conn->write_buffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_buffer.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (conn->session != nullptr) conn->session->CancelInFlight();
    CloseConnection(conn->id);
    return;
  }
  const bool want_write = !conn->write_buffer.empty();
  if (want_write != conn->write_registered) {
    epoll_event ev{};
    ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = conn->id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->write_registered = want_write;
  }
  if (conn->closing && conn->write_buffer.empty()) {
    // Error frame (if any) is on the wire; in-flight work is moot.
    if (conn->session != nullptr) conn->session->CancelInFlight();
    CloseConnection(conn->id);
  }
}

void GterdServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  conns_.erase(it);
}

bool GterdServer::Session::ConsumeFrames(std::string* read_buffer,
                                         std::string* out) {
  size_t start = 0;
  bool keep_open = true;
  while (keep_open) {
    const size_t nl = read_buffer->find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(read_buffer->data() + start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;  // blank keep-alive lines are ignored
    if (line.size() > server_->options_.max_frame_bytes) {
      out->append(FormatGterdError(
          JsonValue::MakeNull(),
          Status::InvalidArgument(
              "request frame exceeds " +
              std::to_string(server_->options_.max_frame_bytes) + " bytes")));
      keep_open = false;
      break;
    }
    auto parsed = ParseGterdRequest(line);
    if (!parsed.ok()) {
      // A malformed frame is still a *framed* frame — answer with an error
      // and keep the connection; the stream is intact.
      out->append(FormatGterdError(JsonValue::MakeNull(), parsed.status()));
      continue;
    }
    auto state = std::make_shared<RequestState>();
    in_flight_.push_back(state);
    server_->Dispatch(conn_id_, std::move(parsed).value(), std::move(state),
                      line.size());
  }
  read_buffer->erase(0, start);
  // Opportunistic prune so a long-lived connection's list stays bounded.
  std::erase_if(in_flight_, [](const std::shared_ptr<RequestState>& s) {
    return s->done.load(std::memory_order_acquire);
  });
  return keep_open;
}

void GterdServer::Session::CancelInFlight() {
  for (const auto& state : in_flight_) state->cancel.Cancel();
  in_flight_.clear();
}

void GterdServer::Dispatch(uint64_t conn_id, GterdRequest request,
                           std::shared_ptr<RequestState> state,
                           uint64_t bytes_in) {
  // Identity and admission time are minted here — on the loop thread,
  // before queueing — so request ids are strictly increasing in admission
  // order and queue_us covers the full wait for a worker.
  state->request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  state->admit_ns = TraceRecorder::NowNs();
  state->bytes_in = bytes_in;
  // Armed before queueing: the deadline covers time spent waiting for a
  // worker, so an overloaded server answers DeadlineExceeded instead of
  // serving stale work.
  const int64_t deadline_ms = request.deadline_ms > 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
  if (deadline_ms > 0) state->cancel.SetTimeout(deadline_ms * 1e-3);
  Status submitted = pool_->Submit(
      &requests_,
      [this, conn_id, request = std::move(request), state,
       deadline_ms]() mutable {
        const uint64_t work_start_ns = TraceRecorder::NowNs();
        ExecContext rctx = base_ctx_;
        rctx.cancel = &state->cancel;
        rctx.request_id = state->request_id;
        // With slow-request capture on, the request's spans land in its
        // own small recorder so a slow one can be dumped span-by-span.
        std::unique_ptr<TraceRecorder> request_trace;
        if (options_.slow_request_ms > 0) {
          request_trace = std::make_unique<TraceRecorder>(kSlowTraceCapacity);
          rctx.trace = request_trace.get();
        }
        Result<JsonValue> result = [&]() -> Result<JsonValue> {
          if (request.method == "debug_slow") {
            // Served by the server, not the service: the ring is ours.
            GTER_RETURN_IF_ERROR(rctx.CheckCancel());
            return DumpSlowRing();
          }
          return service_->Handle(request, rctx);
        }();
        const Status status =
            result.ok() ? Status::OK() : result.status();
        std::string response =
            result.ok()
                ? FormatGterdResponse(request.id, std::move(result).value())
                : FormatGterdError(request.id, result.status());
        ObserveRequest(request, *state, work_start_ns, TraceRecorder::NowNs(),
                       status, response.size(), deadline_ms,
                       request_trace.get());
        state->done.store(true, std::memory_order_release);
        PostResponse(conn_id, std::move(response));
      });
  if (!submitted.ok()) {
    // Pool shutting down: the server is being torn down with it; the
    // connection will be closed without a response.
    state->done.store(true, std::memory_order_release);
  }
}

void GterdServer::ObserveRequest(const GterdRequest& request,
                                 const RequestState& state,
                                 uint64_t work_start_ns, uint64_t done_ns,
                                 const Status& status, uint64_t bytes_out,
                                 int64_t deadline_ms,
                                 TraceRecorder* request_trace) {
  const size_t slot = MethodSlot(request.method);
  const double queue_us =
      static_cast<double>(work_start_ns - state.admit_ns) * 1e-3;
  const double work_us =
      static_cast<double>(done_ns - work_start_ns) * 1e-3;
  queue_us_slidings_[slot]->Record(queue_us);
  work_us_slidings_[slot]->Record(work_us);

  const std::string status_name =
      status.ok() ? "OK" : StatusCodeToString(status.code());

  if (access_log_ != nullptr) {
    AccessLog::Entry entry;
    entry.request_id = state.request_id;
    entry.method = request.method;
    entry.status = status_name;
    entry.bytes_in = state.bytes_in;
    entry.bytes_out = bytes_out;
    entry.queue_us = queue_us;
    entry.work_us = work_us;
    entry.deadline_ms = deadline_ms;
    if (deadline_ms > 0) {
      entry.slack_ms = static_cast<double>(deadline_ms) -
                       static_cast<double>(done_ns - state.admit_ns) * 1e-6;
    }
    const JsonValue* clusterer = request.params.Find("clusterer");
    if (clusterer != nullptr && clusterer->is_string()) {
      entry.clusterer = clusterer->string();
    }
    access_log_->Write(entry);
  }

  if (options_.slow_request_ms > 0 &&
      work_us > static_cast<double>(options_.slow_request_ms) * 1e3) {
    SlowRequestRecord rec;
    rec.request_id = state.request_id;
    rec.method = request.method;
    rec.status = status_name;
    rec.queue_us = queue_us;
    rec.work_us = work_us;
    if (request_trace != nullptr) rec.spans = request_trace->Snapshot();
    std::lock_guard<std::mutex> lock(slow_mutex_);
    if (slow_ring_.size() >= kSlowRingCapacity) slow_ring_.pop_front();
    slow_ring_.push_back(std::move(rec));
  }
}

JsonValue GterdServer::DumpSlowRing() {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  JsonValue out = JsonValue::MakeObject();
  out.Set("threshold_ms", JsonValue::MakeNumber(
                              static_cast<double>(options_.slow_request_ms)));
  out.Set("capacity",
          JsonValue::MakeNumber(static_cast<double>(kSlowRingCapacity)));
  JsonValue slow = JsonValue::MakeArray();
  for (const SlowRequestRecord& rec : slow_ring_) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("request_id",
              JsonValue::MakeNumber(static_cast<double>(rec.request_id)));
    entry.Set("method", JsonValue::MakeString(rec.method));
    entry.Set("status", JsonValue::MakeString(rec.status));
    entry.Set("queue_us", JsonValue::MakeNumber(rec.queue_us));
    entry.Set("work_us", JsonValue::MakeNumber(rec.work_us));
    // Span starts are emitted relative to the request's first span, so
    // the dump is readable without steady-clock context.
    uint64_t base_ns = 0;
    for (const TraceEvent& span : rec.spans) {
      if (base_ns == 0 || span.start_ns < base_ns) base_ns = span.start_ns;
    }
    JsonValue spans = JsonValue::MakeArray();
    for (const TraceEvent& span : rec.spans) {
      JsonValue s = JsonValue::MakeObject();
      s.Set("name", JsonValue::MakeString(span.name));
      s.Set("cat", JsonValue::MakeString(span.category));
      s.Set("start_us", JsonValue::MakeNumber(
                            static_cast<double>(span.start_ns - base_ns) *
                            1e-3));
      s.Set("dur_us", JsonValue::MakeNumber(
                          static_cast<double>(span.duration_ns) * 1e-3));
      spans.Append(std::move(s));
    }
    entry.Set("spans", std::move(spans));
    slow.Append(std::move(entry));
  }
  out.Set("slow", std::move(slow));
  return out;
}

void GterdServer::PostResponse(uint64_t conn_id, std::string response) {
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.emplace_back(conn_id, std::move(response));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void GterdServer::DrainCompletions() {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (auto& [conn_id, response] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // client left before the answer
    it->second->write_buffer.append(response);
    FlushWrites(it->second.get());  // may erase the connection
  }
}

}  // namespace gter
