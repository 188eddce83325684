// AVX-512-vs-scalar differentials for the 512-bit kernel tier: the
// mask-parallel Jaro-Winkler (bitwise; the masked product's panel kernel is
// pinned at every level in masked_multiply_test and diff_test). AVX-512-
// dependent cases GTEST_SKIP on machines or builds without the tier, so
// the suite passes on any x86-64 or none.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/cpu.h"
#include "gter/common/random.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

bool Avx512Available() { return DetectSimdLevel() >= SimdLevel::kAvx512; }

// ---------------------------------------------------------------------------
// Mask-parallel Jaro-Winkler: bitwise against the scalar window walk.

std::string RandomBytes(size_t len, Rng* rng, bool full_range) {
  std::string s(len, '\0');
  for (char& c : s) {
    // Half the corpus from a 4-letter alphabet (dense matches), half from
    // the full byte range including NUL (the zeroed lanes past a string's
    // end must never match a NUL byte).
    c = full_range ? static_cast<char>(rng->NextBounded(256))
                   : static_cast<char>('a' + rng->NextBounded(4));
  }
  return s;
}

TEST(JaroWinklerBatchAvx512, BitIdenticalToScalarOverRandomizedStrings) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512";
  // Lengths straddle the 64-byte zmm capacity (the > 64 cases take the
  // scratch fallback inside the same batch call) and include empties.
  Rng rng(123);
  std::vector<std::string> candidates;
  for (size_t j = 0; j < 40; ++j) {
    candidates.push_back(RandomBytes(rng.NextBounded(71), &rng, j % 2 == 0));
  }
  candidates.push_back("");
  for (size_t qlen : {size_t{0}, size_t{1}, size_t{8}, size_t{33}, size_t{64},
                      size_t{70}}) {
    const std::string query = RandomBytes(qlen, &rng, qlen % 2 == 1);
    std::vector<double> scalar_out, avx512_out;
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      JaroWinklerSimilarityBatch(query, candidates, &scalar_out);
    }
    {
      ScopedSimdLevel avx512(SimdLevel::kAvx512);
      JaroWinklerSimilarityBatch(query, candidates, &avx512_out);
    }
    ASSERT_EQ(scalar_out.size(), avx512_out.size());
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(avx512_out[j], scalar_out[j])
          << "|query|=" << qlen << " candidate " << j << " |b|="
          << candidates[j].size();
      ASSERT_EQ(avx512_out[j], JaroWinklerSimilarity(query, candidates[j]))
          << "per-call entry point, candidate " << j;
    }
  }
}

}  // namespace
}  // namespace gter
