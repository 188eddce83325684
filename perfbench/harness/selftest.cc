// Self-tests of the harness's own logic: percentile support, due-time
// latency against a stalling stub server, failure accounting when the
// server dies, the max_qps bisection and the fusion result digest.
//
//   .bench_build/perfbench/perfbench_selftest   (exit 0 = all passed)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gter/common/json.h"
#include "harness/bench.h"
#include "harness/loadgen.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Quantile(v, 0.5) == 50 && Quantile(v, 0.99) == 99 &&
             Quantile(v, 1.0) == 100,
         "nearest-rank quantiles of 1..100");
  Expect(Median({3, 1, 2, 10}) == 2.5, "median of an even sample");
  Expect(SamplesBeyond(1000, 0.99) == 10 && SupportsQuantile(1000, 0.99),
         "p99 of 1000 samples has 10 beyond it");
  Expect(!SupportsQuantile(999, 0.99) && SupportsQuantile(999, 0.9),
         "999 samples support p90 but not p99");
  Expect(!SupportsQuantile(19, 0.5) && SupportsQuantile(20, 0.5),
         "the median needs 20 samples under the rule");
}

// A one-connection NDJSON stub: answers every request in arrival order,
// but sleeps `stall_ms` before answering request `stall_at`, and closes the
// connection after `die_after` requests (0 = never).
class StubServer {
 public:
  StubServer(int stall_at, int stall_ms, int die_after) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listen(listen_fd_, 4);
    thread_ = std::thread([=, this] { Serve(stall_at, stall_ms, die_after); });
  }
  ~StubServer() {
    thread_.join();
    close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;
  uint16_t port() const { return port_; }

 private:
  void Serve(int stall_at, int stall_ms, int die_after) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string buf;
    char chunk[4096];
    int served = 0;
    for (;;) {
      const size_t nl = buf.find('\n');
      if (nl == std::string::npos) {
        const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        buf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      auto req = gter::JsonValue::Parse(std::string_view(buf.data(), nl));
      buf.erase(0, nl + 1);
      if (die_after > 0 && served == die_after) break;
      if (served == stall_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
      const std::string id =
          req.ok() && req.value().Find("id") ? req.value().Find("id")->Serialize() : "null";
      const std::string resp = "{\"id\": " + id + ", \"ok\": true, \"result\": {}}\n";
      send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
      ++served;
    }
    close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

std::vector<ScheduledRequest> EveryMs(int n) {
  std::vector<ScheduledRequest> s(n);
  for (int i = 0; i < n; ++i) {
    s[i].due_ns = int64_t{i} * 1'000'000;
    s[i].method = "stats";
    s[i].params = "{}";
  }
  return s;
}

void TestDueTimeLatency() {
  // Request 10 stalls the server for 200 ms. Requests 11..30 were due
  // during the stall: timed from their due time, each waited for the rest
  // of it, so a stall inflates later requests, not just its own.
  StubServer stub(/*stall_at=*/10, /*stall_ms=*/200, /*die_after=*/0);
  const auto schedule = EveryMs(60);
  LoadgenOptions opts;
  opts.port = stub.port();
  const LoadgenResult r = RunOpenLoop(schedule, opts);
  bool all_ok = !r.server_lost;
  for (const auto& o : r.outcomes) all_ok = all_ok && o.ok;
  Expect(all_ok, "every request answered by the stalling stub");
  const double stalled = r.outcomes[10].LatencyMs(schedule[10].due_ns);
  const double later = r.outcomes[20].LatencyMs(schedule[20].due_ns);
  const double last = r.outcomes[59].LatencyMs(schedule[59].due_ns);
  Expect(stalled >= 195, "the stalled request waited the stall (" +
                             std::to_string(stalled) + " ms)");
  Expect(later >= 185, "a request due 10 ms into the stall waited ~190 ms (" +
                           std::to_string(later) + " ms)");
  Expect(last >= 145, "a request due 49 ms into the stall waited ~150 ms (" +
                          std::to_string(last) + " ms)");
  // The open-loop generator still sent on schedule during the stall.
  const double lag =
      static_cast<double>(r.outcomes[20].sent_ns - schedule[20].due_ns) / 1e6;
  Expect(lag < 5, "requests were sent on schedule during the stall");
}

void TestDeadServer() {
  // The stub dies after 10 requests: the rest are failed, not hung.
  StubServer stub(/*stall_at=*/-1, 0, /*die_after=*/10);
  const auto schedule = EveryMs(40);
  LoadgenOptions opts;
  opts.port = stub.port();
  const int64_t t0 = NowNs();
  const LoadgenResult r = RunOpenLoop(schedule, opts);
  const double took_s = static_cast<double>(NowNs() - t0) / 1e9;
  size_t ok = 0;
  for (const auto& o : r.outcomes) ok += o.ok;
  Expect(r.server_lost, "a server that closes the connection is detected");
  Expect(ok == 10, "requests after the server died count as failed (" +
                       std::to_string(ok) + " answered)");
  Expect(took_s < 2.0, "the generator stops when the server dies");
}

void TestBisection() {
  // Synthetic server: p99 = 0.1 ms / (1 - rate / 20000), so the 1 ms limit
  // is met up to 18000 req/s.
  auto passes = [](double rate) {
    if (rate >= 20000) return false;
    return 0.1 / (1.0 - rate / 20000.0) <= 1.0;
  };
  const double found = BisectMaxRate(2000, 64000, 12, passes);
  Expect(found <= 18000 && found > 18000 * 0.98,
         "bisection finds the 18000 req/s knee (" + std::to_string(found) + ")");
  Expect(BisectMaxRate(19000, 64000, 6, passes) == 0,
         "a failing lower bound gives 0");
}

void TestDigest() {
  std::vector<bool> matches = {true, false, true, false};
  std::vector<uint32_t> clusters = {0, 1, 0, 2};
  std::vector<double> prob = {0.99, 0.1, 0.985, 0.5};
  const uint64_t d = FusionDigest(matches, clusters, prob);
  Expect(d == FusionDigest(matches, clusters, prob), "same inputs, same digest");
  auto flipped = matches;
  flipped[1] = !flipped[1];
  Expect(d != FusionDigest(flipped, clusters, prob), "one flipped match changes it");
  auto nudged = prob;
  nudged[3] = std::nextafter(nudged[3], 1.0);
  Expect(d != FusionDigest(matches, clusters, nudged),
         "a one-ulp probability change changes it");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestDueTimeLatency();
  perfbench::TestDeadServer();
  perfbench::TestBisection();
  perfbench::TestDigest();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
