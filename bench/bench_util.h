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

inline Prepared Prepare(BenchmarkKind kind, double scale, uint64_t seed,
                        const ExecContext& ctx) {
  Prepared p;
  p.data = GenerateBenchmark(kind, scale, seed, ctx);
  RemoveFrequentTerms(&p.data.dataset);
  p.pairs = PairSpace::Build(p.data.dataset, ctx);
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

/// Owns the context every stage call of a bench binary runs on: the
/// --threads pool (nullptr for the sequential path), a MetricsRegistry
/// when --metrics_out is set and a TraceRecorder when --trace_out is set.
/// Writes the JSON dumps on destruction. Declare one at the top of main(),
/// after ParseStandardFlags, and pass `ctx()` to every stage:
///
///   bench::BenchMetricsScope metrics_scope(flags);
///   Run(..., metrics_scope.ctx());
///
/// With both flags empty the context carries no sinks and the pipeline
/// runs with observability fully disabled (the zero-cost path). Every
/// stage is bit-identical for any thread count, so results match
/// --threads=1 runs.
class BenchMetricsScope {
 public:
  explicit BenchMetricsScope(const FlagSet& flags)
      : path_(flags.GetString("metrics_out")),
        trace_path_(flags.GetString("trace_out")),
        pool_(MakeThreadPool(flags.GetInt("threads"))) {
    if (!path_.empty()) {
      registry_ = std::make_unique<MetricsRegistry>();
      DeclarePipelineMetrics(registry_.get());
    }
    if (!trace_path_.empty()) {
      SetCurrentThreadTraceName("main");
      trace_ = std::make_unique<TraceRecorder>();
    }
    // Stamp every metrics dump / trace with the compute path that ran.
    EmitCpuInfo(registry_.get(), trace_.get());
    ctx_.pool = pool_.get();
    ctx_.metrics = registry_.get();
    ctx_.trace = trace_.get();
  }

  ~BenchMetricsScope() {
    if (registry_ != nullptr) {
      Status s = WriteMetricsJson(path_, *registry_);
      if (s.ok()) {
        std::printf("metrics written to %s\n", path_.c_str());
      } else {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
    }
    if (trace_ != nullptr) {
      Status s = WriteTraceJson(trace_path_, *trace_);
      if (s.ok()) {
        std::printf("trace written to %s (%zu events)\n", trace_path_.c_str(),
                    trace_->event_count());
      } else {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
    }
  }

  const ExecContext& ctx() const { return ctx_; }

 private:
  std::string path_;
  std::string trace_path_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<TraceRecorder> trace_;
  ExecContext ctx_;
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
