#include "harness/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <thread>

#include "gter/common/json.h"
#include "harness/bench.h"

namespace perfbench {
namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string Frame(const ScheduledRequest& r, size_t id) {
  std::string frame = "{\"id\": " + std::to_string(id) + ", \"method\": \"" +
                      r.method + "\", \"params\": " + r.params;
  if (r.deadline_ms > 0) {
    frame += ", \"deadline_ms\": " + std::to_string(r.deadline_ms);
  }
  frame += "}\n";
  return frame;
}

void WaitReadable(int fd, short events, int64_t timeout_ns) {
  pollfd p{fd, events, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  ppoll(&p, 1, &ts, nullptr);
}

// Drives one connection's share of the schedule until it is answered, lost
// or past `end_ns`. Writes only the outcomes of `mine`.
void DriveConnection(int fd, const std::vector<ScheduledRequest>& schedule,
                     const std::vector<size_t>& mine, bool in_order,
                     int64_t start_ns, int64_t end_ns, bool keep,
                     std::vector<RequestOutcome>* outcomes,
                     std::atomic<bool>* lost) {
  // Wake at the due time, not up to the default 50 us timer slack after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  size_t next = 0;
  size_t outstanding = 0;
  std::string wbuf;
  size_t woff = 0;
  std::vector<std::pair<size_t, size_t>> unsent;  // (frame end in wbuf, id)
  std::string rbuf;
  char chunk[65536];
  bool dead = false;
  while (!dead) {
    int64_t now = NowNs() - start_ns;
    while (next < mine.size() && schedule[mine[next]].due_ns <= now &&
           (!in_order || outstanding == 0)) {
      const size_t id = mine[next++];
      wbuf += Frame(schedule[id], id);
      unsent.emplace_back(wbuf.size(), id);
      ++outstanding;
    }
    if (woff < wbuf.size()) {
      const ssize_t n =
          send(fd, wbuf.data() + woff, wbuf.size() - woff, MSG_NOSIGNAL);
      if (n > 0) {
        woff += static_cast<size_t>(n);
        const int64_t sent = NowNs() - start_ns;
        size_t k = 0;
        while (k < unsent.size() && unsent[k].first <= woff) {
          (*outcomes)[unsent[k++].second].sent_ns = sent;
        }
        unsent.erase(unsent.begin(), unsent.begin() + static_cast<long>(k));
        if (woff == wbuf.size()) {
          wbuf.clear();
          woff = 0;
          unsent.clear();
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        dead = true;
        break;
      }
    }
    if (next == mine.size() && outstanding == 0) break;
    now = NowNs() - start_ns;
    if (now >= end_ns) break;
    int64_t wake = end_ns;
    if (next < mine.size() && (!in_order || outstanding == 0)) {
      wake = std::min(wake, schedule[mine[next]].due_ns);
    }
    if (wake > now) {
      WaitReadable(fd, woff < wbuf.size() ? POLLIN | POLLOUT : POLLIN,
                   wake - now);
    }
    for (;;) {
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        rbuf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) dead = true;
      break;
    }
    const int64_t done = NowNs() - start_ns;
    size_t line_start = 0;
    for (size_t nl; (nl = rbuf.find('\n', line_start)) != std::string::npos;
         line_start = nl + 1) {
      const std::string_view line(rbuf.data() + line_start, nl - line_start);
      auto parsed = gter::JsonValue::Parse(line);
      if (!parsed.ok()) continue;  // unmatched: the request stays unanswered
      const gter::JsonValue* id = parsed.value().Find("id");
      if (id == nullptr || !id->is_number()) continue;
      const double idn = id->number();
      if (idn < 0 || idn >= static_cast<double>(outcomes->size())) continue;
      RequestOutcome& out = (*outcomes)[static_cast<size_t>(idn)];
      if (out.done_ns >= 0 || out.sent_ns < 0) continue;
      out.done_ns = done;
      const gter::JsonValue* ok = parsed.value().Find("ok");
      out.ok = ok != nullptr && ok->is_bool() && ok->boolean();
      if (keep) out.response.assign(line);
      --outstanding;
    }
    rbuf.erase(0, line_start);
  }
  if (dead) lost->store(true);
  close(fd);
}

}  // namespace

LoadgenResult RunOpenLoop(const std::vector<ScheduledRequest>& schedule,
                          const LoadgenOptions& options) {
  LoadgenResult result;
  result.outcomes.resize(schedule.size());
  const uint32_t conns = std::max<uint32_t>(1, options.connections);
  std::vector<std::vector<size_t>> mine(conns);
  int64_t last_due = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    mine[schedule[i].conn % conns].push_back(i);
    last_due = std::max(last_due, schedule[i].due_ns);
  }
  for (auto& list : mine) {
    std::stable_sort(list.begin(), list.end(), [&](size_t a, size_t b) {
      return schedule[a].due_ns < schedule[b].due_ns;
    });
  }
  std::vector<int> fds(conns, -1);
  for (uint32_t c = 0; c < conns; ++c) {
    fds[c] = ConnectLoopback(options.port);
    if (fds[c] < 0) result.server_lost = true;
  }
  if (result.server_lost) {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
    return result;
  }
  std::atomic<bool> lost{false};
  const int64_t start_ns = NowNs() + 5'000'000;
  const int64_t end_ns = last_due + options.grace_ns;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (uint32_t c = 0; c < conns; ++c) {
    const bool in_order =
        std::find(options.in_order.begin(), options.in_order.end(), c) !=
        options.in_order.end();
    threads.emplace_back(DriveConnection, fds[c], std::cref(schedule),
                         std::cref(mine[c]), in_order, start_ns, end_ns,
                         options.keep_responses, &result.outcomes, &lost);
  }
  for (auto& t : threads) t.join();
  result.server_lost = lost.load();
  for (const RequestOutcome& o : result.outcomes) {
    if (o.done_ns < 0 || o.done_ns > last_due) ++result.backlog_at_end;
  }
  return result;
}

bool RequestOnce(uint16_t port, const std::string& method,
                 const std::string& params, int timeout_ms,
                 std::string* response) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  ScheduledRequest r;
  r.method = method;
  r.params = params;
  const std::string frame = Frame(r, 0);
  bool ok = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(frame.size());
  std::string buf;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  char chunk[65536];
  while (ok && buf.find('\n') == std::string::npos) {
    const int64_t left = deadline - NowNs();
    if (left <= 0) {
      ok = false;
      break;
    }
    WaitReadable(fd, POLLIN, left);
    const ssize_t n = recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      ok = false;
    }
  }
  close(fd);
  if (!ok) return false;
  response->assign(buf, 0, buf.find('\n'));
  return true;
}

bool HttpGet(uint16_t port, const std::string& path, int timeout_ms,
             std::string* body) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  const std::string head = "GET " + path + " HTTP/1.0\r\n\r\n";
  bool ok = send(fd, head.data(), head.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(head.size());
  std::string buf;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  char chunk[65536];
  while (ok) {
    const int64_t left = deadline - NowNs();
    if (left <= 0) {
      ok = false;
      break;
    }
    WaitReadable(fd, POLLIN, left);
    const ssize_t n = recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      ok = false;
    }
  }
  close(fd);
  const size_t split = buf.find("\r\n\r\n");
  if (!ok || split == std::string::npos) return false;
  body->assign(buf, split + 4);
  return true;
}

}  // namespace perfbench
