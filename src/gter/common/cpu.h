#ifndef GTER_COMMON_CPU_H_
#define GTER_COMMON_CPU_H_

#include <string>
#include <string_view>

namespace gter {

class MetricsRegistry;
class TraceRecorder;

/// Runtime CPU feature detection and SIMD dispatch control (see DESIGN.md
/// §"SIMD dispatch & determinism contract").
///
/// Every vectorized kernel in the compute core (the masked product's panel
/// kernel, batched Jaro-Winkler) keeps its baseline twin compiled in and
/// selects an implementation at call time from the process-wide
/// `ActiveSimdLevel()`. The scalar path is the determinism
/// reference: forcing `--simd=scalar` reproduces the exact pre-SIMD
/// numerics, and the differential tests (ctest label `simd`) pin each
/// dispatched kernel against it.

/// CPUID-reported ISA features relevant to the compute core. `sse2` is the
/// x86-64 baseline; non-x86 builds report everything false. The avx512*
/// flags are only reported true when the OS saves the full ZMM/opmask
/// state (XCR0 bits 5-7), mirroring the YMM check for avx/avx2.
struct CpuFeatures {
  bool sse2 = false;
  bool sse42 = false;
  bool avx = false;
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512dq = false;
  bool avx512vl = false;
  bool avx512vpopcntdq = false;
};

/// Detected features of the executing CPU (cached after the first call).
const CpuFeatures& DetectCpuFeatures();

/// Human-readable "+"-joined feature list, e.g. "sse2+sse4.2+avx+fma+avx2"
/// — the value emitted as trace metadata and printed by the CLI.
std::string CpuFeatureString();

/// Dispatch tiers, ordered: a level is usable iff every lower level is.
/// kAvx512 requires AVX2, FMA and the F+BW+DQ+VL+VPOPCNTDQ feature set
/// the *_avx512.cc TUs are compiled against — a host without all of them
/// (e.g. Skylake-X without VPOPCNTDQ) clamps to kScalar, the baseline
/// kernels, rather than risking an illegal instruction in a kernel tail.
/// kAvx512 keeps the value 2 it had when a level 1 (avx2) existed, so the
/// `simd/level` gauge and bench_micro's level arguments read as before.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx512 = 2,
};

/// Highest level this binary can run: the minimum of what the CPU reports
/// and what the build compiled in (GTER_HAVE_AVX512). Cached.
SimdLevel DetectSimdLevel();

/// The process-wide level every dispatched kernel consults. Starts at
/// `DetectSimdLevel()`; `SetSimdLevel` overrides it (clamped to the
/// detected maximum, so requesting avx512 on a machine without it silently
/// degrades instead of crashing on an illegal instruction).
SimdLevel ActiveSimdLevel();
void SetSimdLevel(SimdLevel level);

/// Parses "scalar" | "avx512" | "auto" (auto → DetectSimdLevel()).
/// Returns false on anything else.
bool ParseSimdLevel(std::string_view text, SimdLevel* level);

/// Canonical flag spelling of `level` ("scalar", "avx512").
const char* SimdLevelName(SimdLevel level);

/// RAII override of the active level for a scope — the harness the
/// differential tests and the per-level bench variants use to force one
/// path. Restores the previous level on destruction. Like the level itself
/// this is process-global; install from the coordinating thread only.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();

  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

/// Records which compute path this run executed on: detected features and
/// the active level as gauges (`cpu/avx2`, `cpu/fma`, `simd/level`, ... —
/// 0/1 flags, level as its enum value) into `metrics`, and as "M"
/// process-label metadata (`simd=avx512 cpu=sse2+...`) into `trace`. Either
/// sink may be null. The CLI and every bench binary call this right after
/// creating their registry/recorder, so run reports and Perfetto traces
/// say which path produced them.
void EmitCpuInfo(MetricsRegistry* metrics, TraceRecorder* trace);

}  // namespace gter

#endif  // GTER_COMMON_CPU_H_
