// gterd: the long-lived resolution daemon.
//
// Loads a CSV dataset, runs the fusion pipeline once at startup, and then
// serves resolution queries over newline-delimited JSON on TCP (protocol:
// DESIGN.md §5). Each request runs on the worker pool under its own
// CancelToken, so per-request deadlines cover queue time and a dropped
// connection cancels its in-flight work.
//
//   gterd --in data.csv [--sources 1] [--port 7421] [--bind 127.0.0.1]
//         [--eta 0.98] [--rounds 5] [--alpha 20] [--steps 20]
//         [--max_df_ratio 0.12] [--default_deadline_ms 0]
//         [--threads 1] [--simd auto] [--metrics_out m.json]
//         [--metrics_port -1] [--access_log gterd.log]
//         [--slow_request_ms 0] [--incremental]
//
// --incremental serves from the updatable ResolverState engine
// (DESIGN.md §4g): startup is a batch build of the same fixed point, and
// every add_record is a real O(neighborhood) ingest + dirty-region
// re-ITER — the response reports the cluster the record resolved into,
// and stats/metrics expose the ingest health counters.
//
// Observability (DESIGN.md §4c/§5c): --metrics_port >= 0 serves live
// Prometheus text on GET /metrics (plus /healthz and /varz);
// --access_log appends one NDJSON line per request; --slow_request_ms
// captures trace spans of requests over the threshold into a bounded
// ring served by the debug_slow method.
//
// SIGINT/SIGTERM shuts the daemon down cleanly: stop accepting, cancel
// in-flight requests, wait for workers, exit 0.

#include <csignal>
#include <cstdio>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "gter/gter.h"

namespace gter {
namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

int Fail(const Status& status) {
  std::fprintf(stderr, "gterd: error: %s\n", status.ToString().c_str());
  return 1;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("in", "dataset.csv", "input CSV (entity,source,field...)");
  flags.AddInt("sources", 1, "number of sources (1 or 2)");
  flags.AddInt("port", 7421, "TCP port (0 = ephemeral, printed at startup)");
  flags.AddString("bind", "127.0.0.1", "bind address");
  flags.AddDouble("eta", 0.98, "matching probability threshold");
  flags.AddInt("rounds", 5, "ITER/CliqueRank reinforcement rounds");
  flags.AddDouble("alpha", 20.0, "transition exponent");
  flags.AddInt("steps", 20, "random-walk steps S");
  flags.AddDouble("max_df_ratio", 0.12, "frequent-term removal ratio");
  flags.AddInt("default_deadline_ms", 0,
               "deadline for requests without their own (0 = none)");
  flags.AddInt("max_frame_bytes", 1 << 20, "request line size limit");
  flags.AddInt("metrics_port", -1,
               "HTTP observability port for /metrics, /healthz, /varz "
               "(0 = ephemeral, -1 = disabled)");
  flags.AddString("access_log", "",
                  "NDJSON access log path (one line per request)");
  flags.AddInt("slow_request_ms", 0,
               "capture trace spans of requests slower than this into the "
               "debug_slow ring (0 = off)");
  flags.AddBool("incremental", false,
                "serve from the incremental ResolverState engine: "
                "add_record ingests for real (dirty-region re-ITER) "
                "instead of parking new records as singletons");
  AddCommonStageFlags(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyCommonStageFlags(flags);
  if (s.ok()) s = RequirePositiveFlags(flags, {"rounds", "steps"});
  if (s.ok() && !flags.GetString("trace_out").empty()) {
    // The daemon keeps no process-wide recorder: slow-request capture
    // records each request's spans into a recorder of its own.
    s = Status::InvalidArgument(
        "gterd does not write --trace_out; use --slow_request_ms to capture "
        "the spans of slow requests (served by the debug_slow method)");
  }
  if (!s.ok()) return Fail(s);

  // The daemon always carries a registry: the serving layer records live
  // latency histograms into it, /metrics and /varz serve it, and
  // --metrics_out snapshots it at shutdown. The one context that carries
  // it loads the corpus, trains and serves, so every stage and request
  // counts into it.
  auto metrics = std::make_unique<MetricsRegistry>();
  DeclarePipelineMetrics(metrics.get());
  ExecContext ctx;
  ctx.metrics = metrics.get();

  auto loaded = LoadDatasetCsv(flags.GetString("in"), "input",
                               static_cast<uint32_t>(flags.GetInt("sources")),
                               ctx);
  if (!loaded.ok()) return Fail(loaded.status());
  auto [dataset, truth] = std::move(loaded).value();

  ResolutionServiceOptions service_options;
  PreprocessOptions preprocess;
  preprocess.max_df_ratio = flags.GetDouble("max_df_ratio");
  RemoveFrequentTerms(&dataset, preprocess);
  service_options.fusion.rounds =
      static_cast<size_t>(flags.GetInt("rounds"));
  service_options.fusion.eta = flags.GetDouble("eta");
  service_options.fusion.cliquerank.alpha = flags.GetDouble("alpha");
  service_options.fusion.cliquerank.max_steps =
      static_cast<size_t>(flags.GetInt("steps"));
  service_options.incremental = flags.GetBool("incremental");

  std::unique_ptr<ThreadPool> pool = MakeThreadPool(flags.GetInt("threads"));
  ctx.pool = pool.get();

  const size_t num_records = dataset.size();
  std::fprintf(stderr, "gterd: training on %zu records...\n", num_records);
  auto service =
      ResolutionService::Create(std::move(dataset), service_options, ctx);
  if (!service.ok()) return Fail(service.status());

  GterdServerOptions server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("port"));
  server_options.bind_address = flags.GetString("bind");
  server_options.default_deadline_ms = flags.GetInt("default_deadline_ms");
  server_options.max_frame_bytes =
      static_cast<size_t>(flags.GetInt("max_frame_bytes"));
  server_options.metrics_port = static_cast<int>(flags.GetInt("metrics_port"));
  server_options.access_log_path = flags.GetString("access_log");
  server_options.slow_request_ms = flags.GetInt("slow_request_ms");
  auto server =
      GterdServer::Start(service.value().get(), server_options, ctx);
  if (!server.ok()) return Fail(server.status());

  // Printed on stdout (and flushed) so scripts can scrape the bound ports
  // when --port=0 / --metrics_port=0.
  std::printf("gterd listening on %s:%u\n",
              server_options.bind_address.c_str(),
              server.value()->port());
  if (server.value()->metrics_port() != 0) {
    std::printf("gterd metrics on http://%s:%u/metrics\n",
                server_options.bind_address.c_str(),
                server.value()->metrics_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "gterd: shutting down\n");
  server.value()->Stop();

  if (!flags.GetString("metrics_out").empty()) {
    Status write = WriteMetricsJson(flags.GetString("metrics_out"), *metrics);
    if (!write.ok()) return Fail(write);
  }
  return 0;
}

}  // namespace
}  // namespace gter

int main(int argc, char** argv) { return gter::Run(argc, argv); }
