#ifndef GTER_BENCH_BENCH_UTIL_H_
#define GTER_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the table/figure reproduction binaries.
//
// Every binary accepts:
//   --scale   dataset scale (1.0 = the paper's sizes; default below)
//   --seed    generator seed
//   --threads worker threads for the parallel hot paths (1 = sequential)
//   --simd    compute-kernel level: scalar | avx512 | auto
// and prints a paper-style table to stdout. The default scale is reduced
// so the whole bench suite completes in minutes on a small machine; pass
// --scale=1 to reproduce the published dataset sizes.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gter/gter.h"

namespace gter {
namespace bench {

inline constexpr double kDefaultScale = 0.5;

/// A generated benchmark, preprocessed, with its candidate-pair universe
/// and evaluation labels — the common setup of §VII.
struct Prepared {
  GeneratedDataset data;
  PairSpace pairs;
  std::vector<bool> labels;
  uint64_t positives = 0;

  const Dataset& dataset() const { return data.dataset; }
  const GroundTruth& truth() const { return data.truth; }
};

inline Prepared Prepare(BenchmarkKind kind, double scale, uint64_t seed) {
  Prepared p;
  p.data = GenerateBenchmark(kind, scale, seed);
  RemoveFrequentTerms(&p.data.dataset);
  p.pairs = PairSpace::Build(p.data.dataset);
  p.labels = LabelPairs(p.pairs, p.data.truth);
  p.positives = TotalPositives(p.data.dataset, p.data.truth);
  return p;
}

/// Optimal-threshold F1 for a score vector (the §VII-C protocol for
/// threshold-based methods).
inline double ScoreF1(const Prepared& p, const std::vector<double>& scores) {
  return BestF1Threshold(scores, p.labels, p.positives).f1;
}

/// F1 of hard decisions.
inline double DecisionF1(const Prepared& p, const std::vector<bool>& matches) {
  return EvaluatePairPredictions(p.pairs, matches, p.labels, p.positives).F1();
}

/// Parses the standard --scale/--seed flags plus the shared stage flags
/// from common_flags.h (plus any the caller added), and applies
/// --log_level and --simd.
inline bool ParseStandardFlags(int argc, char** argv, FlagSet* flags) {
  flags->AddDouble("scale", kDefaultScale, "dataset scale (1.0 = paper size)");
  flags->AddInt("seed", 2018, "generator seed");
  AddCommonStageFlags(flags);
  Status s = flags->Parse(argc, argv);
  if (s.ok()) s = ApplyCommonStageFlags(*flags);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags->Usage().c_str());
    return false;
  }
  return true;
}

/// Pool for --threads, or nullptr for the sequential path. Every stage is
/// bit-identical for any thread count, so results match --threads=1 runs.
inline ThreadPool* BenchPool(const FlagSet& flags) {
  static std::unique_ptr<ThreadPool> pool =
      MakeThreadPool(flags.GetInt("threads"));
  return pool.get();
}

/// ExecContext over BenchPool: the standard context for a bench binary's
/// stage calls (ambient metrics/trace from BenchMetricsScope, no cancel).
inline ExecContext BenchContext(const FlagSet& flags) {
  return ExecContext::WithPool(BenchPool(flags));
}

/// Installs a MetricsRegistry (--metrics_out) and/or a TraceRecorder
/// (--trace_out) for the binary's lifetime and writes the JSON dumps on
/// destruction. Declare one at the top of main(), after ParseStandardFlags:
///
///   bench::BenchMetricsScope metrics(flags);
///
/// With both flags empty this is a no-op and the pipeline runs with
/// observability fully disabled (the zero-cost path).
class BenchMetricsScope {
 public:
  explicit BenchMetricsScope(const FlagSet& flags)
      : path_(flags.GetString("metrics_out")),
        trace_path_(flags.GetString("trace_out")) {
    if (!path_.empty()) {
      registry_ = std::make_unique<MetricsRegistry>();
      DeclarePipelineMetrics(registry_.get());
      install_ = std::make_unique<ScopedMetricsInstall>(registry_.get());
    }
    if (!trace_path_.empty()) {
      SetCurrentThreadTraceName("main");
      trace_ = std::make_unique<TraceRecorder>();
      trace_install_ = std::make_unique<ScopedTraceInstall>(trace_.get());
    }
    // Stamp every metrics dump / trace with the compute path that ran.
    EmitCpuInfo(registry_.get(), trace_.get());
  }

  ~BenchMetricsScope() {
    if (registry_ != nullptr) {
      install_.reset();
      Status s = WriteMetricsJson(path_, *registry_);
      if (s.ok()) {
        std::printf("metrics written to %s\n", path_.c_str());
      } else {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
    }
    if (trace_ != nullptr) {
      trace_install_.reset();
      Status s = WriteTraceJson(trace_path_, *trace_);
      if (s.ok()) {
        std::printf("trace written to %s (%zu events)\n", trace_path_.c_str(),
                    trace_->event_count());
      } else {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
    }
  }

  MetricsRegistry* registry() const { return registry_.get(); }

 private:
  std::string path_;
  std::string trace_path_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<ScopedMetricsInstall> install_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<ScopedTraceInstall> trace_install_;
};

inline const std::vector<BenchmarkKind>& AllBenchmarks() {
  static const std::vector<BenchmarkKind> kAll = {
      BenchmarkKind::kRestaurant, BenchmarkKind::kProduct,
      BenchmarkKind::kPaper};
  return kAll;
}

/// Prints a separator line sized to `width`.
inline void Rule(size_t width) {
  std::string line(width, '-');
  std::printf("%s\n", line.c_str());
}

}  // namespace bench
}  // namespace gter

#endif  // GTER_BENCH_BENCH_UTIL_H_
