// AVX-512 mask-parallel Jaro–Winkler. It is exact: the kernel picks the
// same first-unmatched-equal-char match the scalar window walk picks
// (lowest j via tzcnt over a compare mask), then evaluates the identical
// double formula, so it is bit-identical to the scalar twin, which the simd
// differential tests assert with ASSERT_EQ.

#include "gter/text/string_metrics.h"

#if GTER_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace gter {
namespace internal {
namespace {

/// Jaro core on bitset match state. Both strings ≤ 64 bytes; `b` lives in
/// one byte-masked zmm and each a[i] resolves its whole match window with
/// one byte-compare mask + tzcnt.
double JaroMasked(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t bn = b.size();
  const __mmask64 b_valid =
      bn == 64 ? ~__mmask64{0} : ((__mmask64{1} << bn) - 1);
  const __m512i bvec = _mm512_maskz_loadu_epi8(b_valid, b.data());
  const size_t max_len = std::max(a.size(), bn);
  const size_t window = max_len / 2 >= 1 ? max_len / 2 - 1 : 0;
  uint64_t a_matched = 0;
  uint64_t b_matched = 0;
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(bn, i + window + 1);
    if (lo >= hi) continue;
    const size_t span = hi - lo;
    // [lo, hi) never reaches past bn, so the window mask alone confines the
    // compare to valid bytes (zeroed lanes of bvec can't alias NUL bytes).
    const uint64_t wmask =
        (span == 64 ? ~uint64_t{0} : ((uint64_t{1} << span) - 1)) << lo;
    const uint64_t eq = _mm512_cmpeq_epi8_mask(_mm512_set1_epi8(a[i]), bvec);
    const uint64_t cand = eq & ~b_matched & wmask;
    if (cand != 0) {
      // Lowest set bit = lowest j in the window = the match the scalar
      // ascending-j scan commits to.
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(cand));
      b_matched |= uint64_t{1} << j;
      a_matched |= uint64_t{1} << i;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (((a_matched >> i) & 1) == 0) continue;
    while (((b_matched >> j) & 1) == 0) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
}

}  // namespace

double JaroWinklerAvx512(std::string_view a, std::string_view b,
                         double prefix_scale) {
  const double jaro = JaroMasked(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * prefix_scale * (1.0 - jaro);
}

}  // namespace internal
}  // namespace gter

#endif  // GTER_HAVE_AVX512
