// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload <fusion_sparse|fusion_dense|serve_read|serve_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             --gterd <path to gterd> --workdir <scratch dir>
//
// stdout ends with one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones. The line before it holds the run's noise diagnostics.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// bad arguments, 3 when the watchdog ended a run that overran.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gter/common/cpu.h"
#include "harness/bench.h"
#include "harness/gterd_process.h"
#include "harness/workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // fusion_* (in-process FusionPipeline)
      {"er.load_s", "s"},
      {"core.build_s", "s"},
      {"er.pairs", "count"},
      {"core.iter_s", "s"},
      {"core.iter_sweeps", "count"},
      {"core.iter_capped_rounds", "count"},
      {"core.cliquerank_s", "s"},
      {"matrix.gemm_gflops", "GFLOP/s"},
      {"matrix.masked_gmadds", "Gmadd/s"},
      {"core.endgame_s", "s"},
      {"fusion.unattributed_s", "s"},
      // serve_* (gterd, its /metrics, and the in-process replay)
      {"service.create_s", "s"},
      {"client.resolve_p50_ms", "ms"},
      {"client.resolve_p99_ms", "ms"},
      {"client.ingest_p99_ms", "ms"},
      {"client.max_qps", "1/s"},
      {"server.resolve_queue_p99_us", "us"},
      {"server.resolve_work_p99_us", "us"},
      {"server.add_record_queue_p99_us", "us"},
      {"server.add_record_work_p99_us", "us"},
      {"service.resolve_p50_us", "us"},
      {"server.transport_p50_us", "us"},
      {"text.tokenize_us", "us"},
      {"core.ingest_p50_ms", "ms"},
      {"core.ingest_p99_ms", "ms"},
      {"core.ingest_sweeps", "count"},
      {"core.ingest_new_pairs", "count"},
      {"core.full_resweep_share", "ratio"},
      {"core.raw_ingest_pairs_per_record", "count"},
      {"gen.lag_p99_ms", "ms"},
      {"gen.backlog", "count"},
      // all workloads
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::vector<std::pair<std::string, double>>& values,
                  RunOutput* out) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : PerLayerMetrics()) known = known || m.first == name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n", name.c_str());
      std::abort();
    }
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0.0;
    for (const auto& v : values) {
      if (v.first == name) value = v.second;
    }
    out->per_layer.push_back({name, value, unit});
  }
}

}  // namespace perfbench

namespace {

// Each run must end within 180 s; past this the watchdog stops the
// daemons and exits without a result line.
constexpr unsigned kWatchdogSeconds = 170;

void OnWatchdog(int) {
  perfbench::KillAllGterd();
  const char msg[] = "perfbench: watchdog: run overran, aborting\n";
  (void)!write(STDERR_FILENO, msg, sizeof(msg) - 1);
  _exit(3);
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --gterd <path> --workdir <dir>\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--gterd") {
      args.gterd = value;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const bool fusion =
      args.workload == "fusion_sparse" || args.workload == "fusion_dense";
  const bool serve =
      args.workload == "serve_read" || args.workload == "serve_ingest";
  if (!fusion && !serve) return Usage("unknown --workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (serve && access(args.gterd.c_str(), X_OK) != 0) {
    return Usage("--gterd must name the gterd binary");
  }
  args.trace = trace == "1";

  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, OnWatchdog);
  alarm(kWatchdogSeconds);

  const CpuSample cpu_begin = SampleCpu();
  const double calibration_begin = CalibrationLoopMs();
  RunOutput out = fusion ? RunFusionWorkload(args) : RunServeWorkload(args);
  const double calibration_end = CalibrationLoopMs();
  const NoiseReport noise = CompareCpu(cpu_begin, SampleCpu());

  std::vector<Metric> diagnostics = {
      {"nproc", static_cast<double>(OnlineCpus()), "count"},
      {"steal_share", noise.steal_share, "ratio"},
      {"other_cpu_cores", noise.other_cpu_cores, "cores"},
      {"calibration_begin_ms", calibration_begin, "ms"},
      {"calibration_end_ms", calibration_end, "ms"},
  };
  diagnostics.insert(diagnostics.end(), out.diagnostics.begin(),
                     out.diagnostics.end());
  std::string line = "{\"diagnostics\": {\"workload\": \"" + args.workload +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"simd\": \"" +
                     gter::SimdLevelName(gter::ActiveSimdLevel()) + "\"";
  for (const Metric& m : diagnostics) {
    line += ", \"" + m.name + "\": " + JsonNumber(m.value);
  }
  line += "}}";

  const std::vector<Metric>& metrics = args.trace ? out.per_layer : out.end_to_end;
  std::fprintf(stderr, "perfbench %s seed %llu (%s):\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = out.problems.empty();
  std::printf("%s\n%s\n", line.c_str(),
              ResultLine(correct, out.attempted, out.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
