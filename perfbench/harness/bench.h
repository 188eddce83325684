#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

// Shared harness pieces: clocks, sample statistics, the fusion result
// digest, host-noise diagnostics and the result line.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Nearest-rank q-quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Samples that lie strictly beyond the nearest-rank q-quantile of n.
size_t SamplesBeyond(size_t n, double q);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one stray sample cannot set it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// True when n samples support the q-quantile under kMinSamplesBeyond.
bool SupportsQuantile(size_t n, double q);

/// Highest offered rate in [lo, hi] that `passes` accepts, by bisection on
/// a log scale with `steps` probes. Returns 0 when `lo` itself fails. The
/// probe results are assumed monotone: a rate that fails makes every
/// higher rate fail.
double BisectMaxRate(double lo, double hi, int steps,
                     const std::function<bool(double)>& passes);

/// splitmix64: the harness's own seeded stream, independent of the
/// library's generators.
uint64_t SplitMix64(uint64_t* state);

/// Generator seed of every corpus. The content stays fixed so that record
/// and pair counts, and so the work per run, do not move between seeds;
/// the run seed shuffles the records (ids, order, and which records a
/// serving workload holds out) and drives the traffic.
inline constexpr uint64_t kCorpusSeed = 2018;

/// Shuffles CSV rows 1..n (row 0 is the header) by `seed` (Fisher-Yates).
void ShuffleRows(std::vector<std::vector<std::string>>* rows, uint64_t seed);

/// Order-sensitive 64-bit digest of a fusion outcome: the match bits, the
/// cluster labels and the exact bit patterns of the pair probabilities.
uint64_t FusionDigest(const std::vector<bool>& matches,
                      const std::vector<uint32_t>& cluster_of,
                      const std::vector<double>& probability);

/// Whole-machine CPU counters from /proc/stat plus this process's own CPU
/// time (children that were waited for included), in clock ticks.
struct CpuSample {
  uint64_t total = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
  uint64_t self = 0;
  int64_t wall_ns = 0;
};
CpuSample SampleCpu();

/// Noise diagnostics over one run, from two CpuSamples.
struct NoiseReport {
  double steal_share = 0.0;       // steal ticks / all ticks
  double other_cpu_cores = 0.0;   // busy ticks not spent by this run
};
NoiseReport CompareCpu(const CpuSample& begin, const CpuSample& end);

/// Times a fixed single-threaded integer and floating-point loop, in ms.
/// Run at the start and end of a run: a drift between the two shows the
/// host changed speed under the measurement.
double CalibrationLoopMs();

/// Peak resident set (VmHWM) of a process in MiB; pid 0 reads this process.
double PeakRssMb(pid_t pid);

/// Online CPUs.
unsigned OnlineCpus();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Formats a double with all its digits (%.17g), or null when not finite.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
