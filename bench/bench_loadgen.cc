// bench_loadgen: concurrent load generator for gterd.
//
// Drives N concurrent connections, each issuing a fixed number of
// requests (a resolve / pair_score / stats mix), and reports throughput
// and latency percentiles:
//
//   loadgen: 16 conns x 250 reqs: 4000 ok, 0 errors, 0 deadline_exceeded
//   qps 12345.6  p50 0.41 ms  p95 1.02 ms  p99 2.31 ms
//
// Whenever any add_record ran, one more line gives the ingest latency on
// its own (the percentiles above mix every method):
//
//   add_record: client p50 0.52 ms  p99 9.87 ms (250 samples)
//
// Modes:
//   --port=0 (default) self-hosts: generates a dataset at --scale, trains
//     a ResolutionService, starts a GterdServer on an ephemeral loopback
//     port, and hammers it — the perf-gate configuration, hermetic in one
//     process. The server gets an ephemeral metrics port, and after the
//     run its /metrics is scraped to cross-check the server-side resolve
//     work_us p99 against the client-side resolve p99. --incremental
//     self-hosts the updatable ResolverState engine instead of the
//     frozen batch model (add_record then ingests for real).
//   --port=N targets an already-running gterd (--host to point off-box).
//     Queries are built from a stats() probe, so no dataset is needed.
//     --metrics_port=N enables the same scrape cross-check.
//
// --mix=R:A:P:S sets the per-connection request cycle as a ratio of
// resolve : add_record : pair_score : stats calls. The default 2:0:1:1
// is the historical mix; 8:1:4:3 is the mixed-ingest gate configuration.
// A method that cannot run degrades in place (resolve/add_record need
// record texts, pair_score needs >= 2 records; the fallback is stats),
// so external-mode runs without texts still issue every slot.
//
// --warmup_requests=N has every connection issue N unrecorded requests
// before measurement starts (cache/JIT-free here, but it drains the
// first-connection and allocator cold paths out of the percentiles).
//
// --p99_budget_ms=B (0 = off) turns the run into a latency gate: exit 1
// when the measured client p99 exceeds B. tools/perf_gate.sh wires this
// through PERF_GATE_P99_BUDGET_MS.
//
// Exit code: 0 when every request got a well-formed response (deadline
// errors are valid responses), 1 on any transport/protocol error or a
// blown latency budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace gter {
namespace {

struct WorkerResult {
  std::vector<double> latencies_ms;
  std::vector<double> resolve_latencies_ms;  // resolve calls only
  std::vector<double> add_record_latencies_ms;  // add_record calls only
  uint64_t ok = 0;
  uint64_t deadline = 0;  // Cancelled / DeadlineExceeded responses
  uint64_t errors = 0;    // transport or malformed-frame failures
};

enum class ReqKind { kResolve, kAddRecord, kPairScore, kStats };

/// Parses "R:A:P:S" (resolve : add_record : pair_score : stats ratio)
/// into the per-connection request cycle. Returns false on malformed
/// input or an all-zero ratio.
bool ParseMix(const std::string& spec, std::vector<ReqKind>* cycle) {
  constexpr ReqKind kOrder[] = {ReqKind::kResolve, ReqKind::kAddRecord,
                                ReqKind::kPairScore, ReqKind::kStats};
  cycle->clear();
  size_t pos = 0;
  for (size_t field = 0; field < 4; ++field) {
    size_t end = spec.find(':', pos);
    if (field < 3 ? end == std::string::npos : end != std::string::npos) {
      return false;
    }
    if (field == 3) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    const unsigned long count = std::strtoul(token.c_str(), nullptr, 10);
    if (count > 1000) return false;  // the cycle is repeated, keep it short
    for (unsigned long k = 0; k < count; ++k) cycle->push_back(kOrder[field]);
    pos = end + 1;
  }
  return !cycle->empty();
}

/// One connection's request loop. `texts` drives resolve/add_record
/// bodies; a cycle slot whose method cannot run here (no texts, or
/// pair_score with < 2 records) degrades toward stats so every slot
/// still issues a request. The first `warmup` requests are issued but
/// not recorded.
void RunWorker(const std::string& host, uint16_t port, uint64_t requests,
               uint64_t warmup, int64_t deadline_ms, uint64_t num_records,
               const std::vector<std::string>* texts,
               const std::vector<ReqKind>* cycle, uint64_t seed,
               WorkerResult* out) {
  auto connected = GterdClient::Connect(host, port);
  if (!connected.ok()) {
    out->errors += requests;
    return;
  }
  GterdClient client = std::move(connected).value();
  Rng rng(seed);
  out->latencies_ms.reserve(requests);
  const bool have_texts = texts != nullptr && !texts->empty();
  for (uint64_t i = 0; i < warmup + requests; ++i) {
    const bool measured = i >= warmup;
    JsonValue params = JsonValue::MakeObject();
    std::string method;
    ReqKind kind = (*cycle)[i % cycle->size()];
    // Degradation ladder: resolve/add_record need texts, pair_score
    // needs two records; anything unservable lands on stats.
    if ((kind == ReqKind::kResolve || kind == ReqKind::kAddRecord) &&
        !have_texts) {
      kind = ReqKind::kPairScore;
    }
    if (kind == ReqKind::kPairScore && num_records < 2) {
      kind = ReqKind::kStats;
    }
    switch (kind) {
      case ReqKind::kResolve:
        method = "resolve";
        params.Set("text", JsonValue::MakeString(
                               (*texts)[rng.NextBounded(texts->size())]));
        break;
      case ReqKind::kAddRecord:
        method = "add_record";
        params.Set("text", JsonValue::MakeString(
                               (*texts)[rng.NextBounded(texts->size())]));
        params.Set("source", JsonValue::MakeNumber(0.0));
        break;
      case ReqKind::kPairScore:
        method = "pair_score";
        params.Set("a", JsonValue::MakeNumber(static_cast<double>(
                            rng.NextBounded(num_records))));
        params.Set("b", JsonValue::MakeNumber(static_cast<double>(
                            rng.NextBounded(num_records))));
        break;
      case ReqKind::kStats:
        method = "stats";
        break;
    }
    const auto start = std::chrono::steady_clock::now();
    auto response = client.Call(method, std::move(params), deadline_ms);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (measured) {
      const double ms =
          std::chrono::duration<double, std::milli>(elapsed).count();
      out->latencies_ms.push_back(ms);
      if (method == "resolve") out->resolve_latencies_ms.push_back(ms);
      if (method == "add_record") out->add_record_latencies_ms.push_back(ms);
    }
    if (response.ok()) {
      if (measured) ++out->ok;
    } else if (IsCancellation(response.status())) {
      if (measured) ++out->deadline;
    } else {
      ++out->errors;  // counted even in warmup: a broken run must not pass
      if (response.status().code() == StatusCode::kIOError) return;
    }
  }
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("host", "127.0.0.1", "gterd address (external mode)");
  flags.AddInt("port", 0, "gterd port; 0 self-hosts an in-process server");
  flags.AddInt("connections", 16, "concurrent connections");
  flags.AddInt("requests", 250, "requests per connection");
  flags.AddInt("warmup_requests", 0,
               "unrecorded warmup requests per connection");
  flags.AddInt("deadline_ms", 0, "per-request deadline (0 = none)");
  flags.AddDouble("p99_budget_ms", 0.0,
                  "fail (exit 1) when client p99 exceeds this (0 = off)");
  flags.AddInt("metrics_port", 0,
               "external server's /metrics port for the scrape cross-check "
               "(self-host mode discovers it automatically)");
  flags.AddString("kind", "restaurant",
                  "self-host dataset kind: restaurant | product | paper");
  flags.AddString("mix", "2:0:1:1",
                  "resolve:add_record:pair_score:stats request ratio");
  flags.AddBool("incremental", false,
                "self-host the incremental ResolverState engine "
                "(add_record ingests for real)");
  if (!bench::ParseStandardFlags(argc, argv, &flags)) return 2;
  bench::BenchMetricsScope metrics(flags);

  std::vector<ReqKind> cycle;
  if (!ParseMix(flags.GetString("mix"), &cycle)) {
    std::fprintf(stderr, "loadgen: bad --mix '%s' (want R:A:P:S, e.g. "
                 "2:0:1:1)\n",
                 flags.GetString("mix").c_str());
    return 2;
  }

  const auto connections = static_cast<size_t>(flags.GetInt("connections"));
  const auto requests = static_cast<uint64_t>(flags.GetInt("requests"));
  const auto warmup =
      static_cast<uint64_t>(std::max<int64_t>(0, flags.GetInt("warmup_requests")));
  const int64_t deadline_ms = flags.GetInt("deadline_ms");
  const double p99_budget_ms = flags.GetDouble("p99_budget_ms");
  std::string host = flags.GetString("host");
  auto port = static_cast<uint16_t>(flags.GetInt("port"));
  auto metrics_port = static_cast<uint16_t>(flags.GetInt("metrics_port"));

  // Self-host state (kept alive for the run when --port=0).
  std::unique_ptr<ResolutionService> service;
  std::unique_ptr<GterdServer> server;
  std::vector<std::string> texts;
  uint64_t num_records = 0;

  if (port == 0) {
    host = "127.0.0.1";
    BenchmarkKind kind;
    const std::string& name = flags.GetString("kind");
    if (name == "restaurant") {
      kind = BenchmarkKind::kRestaurant;
    } else if (name == "product") {
      kind = BenchmarkKind::kProduct;
    } else if (name == "paper") {
      kind = BenchmarkKind::kPaper;
    } else {
      std::fprintf(stderr, "unknown --kind '%s'\n", name.c_str());
      return 2;
    }
    GeneratedDataset data =
        GenerateBenchmark(kind, flags.GetDouble("scale"),
                          static_cast<uint64_t>(flags.GetInt("seed")));
    RemoveFrequentTerms(&data.dataset);
    num_records = data.dataset.size();
    texts.reserve(num_records);
    for (const Record& r : data.dataset.records()) {
      texts.push_back(r.raw_text);
    }
    std::fprintf(stderr, "loadgen: training on %llu records...\n",
                 static_cast<unsigned long long>(num_records));
    ResolutionServiceOptions service_options;
    service_options.incremental = flags.GetBool("incremental");
    auto built = ResolutionService::Create(
        std::move(data.dataset), std::move(service_options),
        bench::BenchContext(flags));
    if (!built.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    service = std::move(built).value();
    GterdServerOptions server_options;
    server_options.metrics_port = 0;  // ephemeral: scraped after the run
    auto started = GterdServer::Start(service.get(), server_options,
                                      bench::BenchContext(flags));
    if (!started.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    port = server->port();
    metrics_port = server->metrics_port();
  } else {
    // Probe the target so pair_score draws valid record ids.
    auto probe = GterdClient::Connect(host, port);
    if (!probe.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    auto stats = probe.value().Call("stats", JsonValue::MakeObject());
    if (!stats.ok()) {
      std::fprintf(stderr, "loadgen: stats probe: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    num_records =
        static_cast<uint64_t>(stats.value().NumberOr("records", 0.0));
  }

  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  const auto wall_start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back(RunWorker, host, port, requests, warmup,
                         deadline_ms, num_records,
                         texts.empty() ? nullptr : &texts, &cycle,
                         static_cast<uint64_t>(flags.GetInt("seed")) + c,
                         &results[c]);
  }
  for (auto& w : workers) w.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  uint64_t ok = 0, deadline = 0, errors = 0;
  std::vector<double> latencies;
  std::vector<double> resolve_latencies;
  std::vector<double> add_record_latencies;
  for (const WorkerResult& r : results) {
    ok += r.ok;
    deadline += r.deadline;
    errors += r.errors;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    resolve_latencies.insert(resolve_latencies.end(),
                             r.resolve_latencies_ms.begin(),
                             r.resolve_latencies_ms.end());
    add_record_latencies.insert(add_record_latencies.end(),
                                r.add_record_latencies_ms.begin(),
                                r.add_record_latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(resolve_latencies.begin(), resolve_latencies.end());
  std::sort(add_record_latencies.begin(), add_record_latencies.end());
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(latencies.size()) / wall_seconds
                         : 0.0;

  std::printf("loadgen: %zu conns x %llu reqs: %llu ok, %llu errors, "
              "%llu deadline_exceeded\n",
              connections, static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(deadline));
  const double client_p99 = Percentile(latencies, 0.99);
  std::printf("qps %.1f  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n", qps,
              Percentile(latencies, 0.50), Percentile(latencies, 0.95),
              client_p99);
  if (!add_record_latencies.empty()) {
    std::printf("add_record: client p50 %.3f ms  p99 %.3f ms (%zu samples)\n",
                Percentile(add_record_latencies, 0.50),
                Percentile(add_record_latencies, 0.99),
                add_record_latencies.size());
  }

  // Scrape cross-check: read the server's own windowed resolve queue_us /
  // work_us histograms off /metrics and put their p99s next to the
  // client-observed resolve p99. Client latency ≈ queue + work + wire, so
  // client and server-side queue+work should agree closely (within ~20%
  // once work is non-trivial); the split localizes a latency regression
  // to the handler (work moves), admission backlog (queue moves), or the
  // transport (only the client moves).
  if (metrics_port != 0 && !resolve_latencies.empty()) {
    auto scraped = GterdClient::HttpGet(host, metrics_port, "/metrics");
    if (!scraped.ok()) {
      std::fprintf(stderr, "loadgen: /metrics scrape: %s\n",
                   scraped.status().ToString().c_str());
      ++errors;
    } else {
      PromParsedHistogram queue_us, work_us;
      if (!FindPromHistogram(scraped.value(), "gter_server_resolve_queue_us",
                             &queue_us) ||
          !FindPromHistogram(scraped.value(), "gter_server_resolve_work_us",
                             &work_us)) {
        std::fprintf(stderr,
                     "loadgen: gter_server_resolve_{queue,work}_us missing "
                     "from /metrics\n");
        ++errors;
      } else {
        const double work_p99_ms =
            PromHistogramQuantile(work_us, 0.99) / 1000.0;
        const double queue_p99_ms =
            PromHistogramQuantile(queue_us, 0.99) / 1000.0;
        const double server_p99_ms = queue_p99_ms + work_p99_ms;
        const double client_resolve_p99 = Percentile(resolve_latencies, 0.99);
        const double ratio = server_p99_ms > 0.0
                                 ? client_resolve_p99 / server_p99_ms
                                 : 0.0;
        std::printf("resolve p99: client %.3f ms, server queue+work %.3f ms "
                    "(queue %.3f + work %.3f; x%.2f, %llu server-side "
                    "observations)\n",
                    client_resolve_p99, server_p99_ms, queue_p99_ms,
                    work_p99_ms, ratio,
                    static_cast<unsigned long long>(work_us.count));
      }
    }
  }

  if (p99_budget_ms > 0.0 && client_p99 > p99_budget_ms) {
    std::fprintf(stderr,
                 "loadgen: LATENCY BUDGET EXCEEDED: client p99 %.3f ms > "
                 "budget %.3f ms\n",
                 client_p99, p99_budget_ms);
    return 1;
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gter

int main(int argc, char** argv) { return gter::Run(argc, argv); }
