// AVX-512-vs-scalar differentials for the 512-bit kernel tier: packed
// GEMM (≤1e-12) and the mask-parallel Jaro-Winkler (bitwise). AVX-512-
// dependent cases GTEST_SKIP on machines or builds without the tier, so
// the suite passes on any x86-64 or none.

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/cpu.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/matrix/gemm.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

bool Avx512Available() { return DetectSimdLevel() >= SimdLevel::kAvx512; }

// ---------------------------------------------------------------------------
// Packed GEMM at the avx512 tier.

DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->UniformDouble(-1.0, 1.0);
  }
  return m;
}

void ExpectGemmClose(const DenseMatrix& ref, const DenseMatrix& got) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (size_t r = 0; r < ref.rows(); ++r) {
    for (size_t c = 0; c < ref.cols(); ++c) {
      const double tolerance = 1e-12 * std::max(1.0, std::fabs(ref(r, c)));
      ASSERT_NEAR(got(r, c), ref(r, c), tolerance)
          << "at (" << r << ", " << c << ")";
    }
  }
}

// (m, k, n) shapes straddling every avx512 packing edge: the 8-row
// micropanel, the 16-column (two-zmm) panel, the 64-row MC block, and the
// 256-deep KC slab.
class Avx512GemmDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(Avx512GemmDifferential, PackedMatchesScalarWithinTolerance) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512";
  auto [m, k, n] = GetParam();
  Rng rng(m * 257 + k * 31 + n);
  DenseMatrix a = RandomMatrix(m, k, &rng);
  DenseMatrix b = RandomMatrix(k, n, &rng);

  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx512(SimdLevel::kAvx512);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Avx512GemmDifferential,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(7, 9, 15),
                      std::make_tuple(8, 16, 16), std::make_tuple(9, 17, 33),
                      std::make_tuple(63, 64, 65), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 257, 17), std::make_tuple(72, 31, 80),
                      std::make_tuple(130, 300, 66)));

TEST(Avx512Gemm, SparseRowsSurviveThePanelSkip) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512";
  // Rows 0-7 all zero, row 8 dense: the all-zero 8-row micropanel must be
  // skipped without corrupting C, and the mixed panel must still compute.
  Rng rng(6);
  DenseMatrix a(17, 300, 0.0);
  for (size_t c = 0; c < 300; ++c) a(8, c) = rng.UniformDouble(-1.0, 1.0);
  for (size_t c = 0; c < 300; c += 3) a(16, c) = rng.UniformDouble(-1.0, 1.0);
  DenseMatrix b = RandomMatrix(300, 35, &rng);
  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx512(SimdLevel::kAvx512);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
  for (size_t c = 0; c < 35; ++c) ASSERT_EQ(got(0, c), 0.0);
}

TEST(Avx512Gemm, PackedKernelIsThreadCountInvariant) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512";
  Rng rng(10);
  DenseMatrix a = RandomMatrix(150, 90, &rng);
  DenseMatrix b = RandomMatrix(90, 70, &rng);
  ScopedSimdLevel avx512(SimdLevel::kAvx512);
  DenseMatrix serial, parallel;
  Gemm(a, b, &serial);
  ThreadPool pool(4);
  Gemm(a, b, &parallel, ExecContext::WithPool(&pool));
  EXPECT_EQ(serial.MaxAbsDiff(parallel), 0.0);
}

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
