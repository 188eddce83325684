#ifndef GTER_TESTS_COMMON_SIMD_LEVELS_H_
#define GTER_TESTS_COMMON_SIMD_LEVELS_H_

#include <vector>

#include "gter/common/cpu.h"

namespace gter {

/// Every dispatch level up to what the host supports, lowest first; on an
/// AVX-512 host both. Tests run a kernel at each to pin tier independence.
inline std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx512}) {
    if (level <= DetectSimdLevel()) levels.push_back(level);
  }
  return levels;
}

}  // namespace gter

#endif  // GTER_TESTS_COMMON_SIMD_LEVELS_H_
