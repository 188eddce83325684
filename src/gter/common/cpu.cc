#include "gter/common/cpu.h"

#include <atomic>

#include "gter/common/metrics.h"
#include "gter/common/trace.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define GTER_CPU_X86 1
#include <cpuid.h>
#endif

namespace gter {
namespace {

#if GTER_CPU_X86
CpuFeatures DetectViaCpuid() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.sse2 = (edx & (1u << 26)) != 0;
    f.sse42 = (ecx & (1u << 20)) != 0;
    f.avx = (ecx & (1u << 28)) != 0;
    f.fma = (ecx & (1u << 12)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & (1u << 5)) != 0;
    f.avx512f = (ebx & (1u << 16)) != 0;
    f.avx512dq = (ebx & (1u << 17)) != 0;
    f.avx512bw = (ebx & (1u << 30)) != 0;
    f.avx512vl = (ebx & (1u << 31)) != 0;
    f.avx512vpopcntdq = (ecx & (1u << 14)) != 0;
  }
  // AVX/AVX2 registers are only usable when the OS saves the YMM state
  // (XSAVE/OSXSAVE + XCR0 bits 1-2); without that, executing a VEX
  // instruction faults even though CPUID advertises it. AVX-512 further
  // needs the opmask/ZMM_Hi256/Hi16_ZMM state (XCR0 bits 5-7).
  const bool osxsave = [&] {
    unsigned int a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    return (c & (1u << 27)) != 0;
  }();
  unsigned int xcr0_lo = 0, xcr0_hi = 0;
  if (osxsave) {
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  }
  const bool ymm_enabled = osxsave && (xcr0_lo & 0x6) == 0x6;
  const bool zmm_enabled = ymm_enabled && (xcr0_lo & 0xe0) == 0xe0;
  if (!ymm_enabled) {
    f.avx = f.fma = f.avx2 = false;
  }
  if (!zmm_enabled) {
    f.avx512f = f.avx512dq = f.avx512bw = f.avx512vl = f.avx512vpopcntdq =
        false;
  }
  return f;
}
#endif  // GTER_CPU_X86

/// The active level. Relaxed loads are enough: kernels read the level once
/// at entry on the calling thread, and the install points (flag parsing,
/// ScopedSimdLevel in tests/bench) happen-before the work they configure.
std::atomic<int> g_active_level{-1};  // -1 = not yet initialized

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
#if GTER_CPU_X86
  static const CpuFeatures features = DetectViaCpuid();
#else
  static const CpuFeatures features = {};
#endif
  return features;
}

std::string CpuFeatureString() {
  const CpuFeatures& f = DetectCpuFeatures();
  std::string out;
  auto append = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  append(f.sse2, "sse2");
  append(f.sse42, "sse4.2");
  append(f.avx, "avx");
  append(f.fma, "fma");
  append(f.avx2, "avx2");
  append(f.avx512f, "avx512f");
  append(f.avx512bw, "avx512bw");
  append(f.avx512dq, "avx512dq");
  append(f.avx512vl, "avx512vl");
  append(f.avx512vpopcntdq, "avx512vpopcntdq");
  if (out.empty()) out = "scalar-only";
  return out;
}

SimdLevel DetectSimdLevel() {
#if GTER_HAVE_AVX512
  const CpuFeatures& f = DetectCpuFeatures();
  // The avx512 kernels' intrinsics need only F and BW. DQ, VL and
  // VPOPCNTDQ are still required because no kernel has been measured on
  // a host without them (e.g. Skylake-SP), so such hosts stay on the
  // baseline kernels.
  if (f.avx2 && f.fma && f.avx512f && f.avx512bw && f.avx512dq &&
      f.avx512vl && f.avx512vpopcntdq) {
    return SimdLevel::kAvx512;
  }
#endif
  return SimdLevel::kScalar;
}

SimdLevel ActiveSimdLevel() {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(DetectSimdLevel());
    // Racing initializers write the same value, so no CAS needed.
    g_active_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

void SetSimdLevel(SimdLevel level) {
  if (level > DetectSimdLevel()) level = DetectSimdLevel();
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool ParseSimdLevel(std::string_view text, SimdLevel* level) {
  if (text == "scalar") {
    *level = SimdLevel::kScalar;
    return true;
  }
  if (text == "avx512") {
    *level = SimdLevel::kAvx512;
    return true;
  }
  if (text == "auto") {
    *level = DetectSimdLevel();
    return true;
  }
  return false;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level)
    : previous_(ActiveSimdLevel()) {
  SetSimdLevel(level);
}

ScopedSimdLevel::~ScopedSimdLevel() { SetSimdLevel(previous_); }

void EmitCpuInfo(MetricsRegistry* metrics, TraceRecorder* trace) {
  const CpuFeatures& f = DetectCpuFeatures();
  const SimdLevel level = ActiveSimdLevel();
  if (metrics != nullptr) {
    metrics->SetGauge("cpu/sse2", f.sse2 ? 1.0 : 0.0);
    metrics->SetGauge("cpu/sse42", f.sse42 ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx", f.avx ? 1.0 : 0.0);
    metrics->SetGauge("cpu/fma", f.fma ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx2", f.avx2 ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx512f", f.avx512f ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx512bw", f.avx512bw ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx512dq", f.avx512dq ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx512vl", f.avx512vl ? 1.0 : 0.0);
    metrics->SetGauge("cpu/avx512vpopcntdq", f.avx512vpopcntdq ? 1.0 : 0.0);
    metrics->SetGauge("simd/level", static_cast<double>(level));
  }
  if (trace != nullptr) {
    trace->AddProcessLabel(std::string("simd=") + SimdLevelName(level));
    trace->AddProcessLabel("cpu=" + CpuFeatureString());
  }
}

}  // namespace gter
