#include "gter/matrix/masked_multiply.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gter/common/cpu.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "common/simd_levels.h"
#include "matrix/masked_product_oracle.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

/// Random symmetric adjacency pattern over n nodes with edge prob `p`,
/// plus a transition matrix with the same structure.
struct Fixture {
  CsrMatrix pattern;
  CsrMatrix trans;
  size_t n;
};

Fixture MakeFixture(size_t n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  std::vector<CsrMatrix::Triplet> pat, tr;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!rng.Bernoulli(edge_prob)) continue;
      pat.push_back({i, j, 1.0});
      pat.push_back({j, i, 1.0});
      double w1 = rng.OpenUniformDouble();
      double w2 = rng.OpenUniformDouble();
      tr.push_back({i, j, w1});
      tr.push_back({j, i, w2});
    }
  }
  Fixture f;
  f.n = n;
  f.pattern = CsrMatrix::FromTriplets(n, n, std::move(pat));
  f.trans = CsrMatrix::FromTriplets(n, n, std::move(tr));
  f.trans.NormalizeRows();
  return f;
}

std::vector<double> RandomIterate(const Fixture& f, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cur(f.pattern.nnz());
  for (auto& v : cur) v = rng.UniformDouble();
  return cur;
}

TEST(MaskedMultiplyTest, OracleMatchesDenseProductOnPattern) {
  Fixture f = MakeFixture(20, 0.3, 42);
  const std::vector<double> cur = RandomIterate(f, 7);
  const std::vector<double> out = MaskedProductOracle(f.trans, cur, f.pattern);

  // M_t × (M ⊙ M_n) from the definition, every k of the n in ascending
  // order: the zero terms add +0.0, so the sums agree bit for bit.
  size_t pos = 0;
  for (size_t i = 0; i < f.n; ++i) {
    for (uint32_t j : f.pattern.RowCols(i)) {
      double ref = 0.0;
      for (size_t k = 0; k < f.n; ++k) {
        const int64_t kj = f.pattern.PositionOf(k, j);
        const double masked = kj < 0 ? 0.0 : cur[static_cast<size_t>(kj)];
        ref += f.trans.At(i, k) * masked;
      }
      EXPECT_EQ(out[pos], ref) << i << "," << j;
      ++pos;
    }
  }
}

TEST(MaskedMultiplyTest, CsrGatherMatchesOracle) {
  Fixture f = MakeFixture(25, 0.3, 17);
  const std::vector<double> cur = RandomIterate(f, 13);
  std::vector<double> out(f.pattern.nnz(), -1.0);
  ASSERT_TRUE(
      ComputeMaskedProductCsr(f.trans, cur.data(), f.pattern, out.data()).ok());
  EXPECT_EQ(out, MaskedProductOracle(f.trans, cur, f.pattern));
}

TEST(MaskedMultiplyTest, CsrGatherHandlesIsolatedRows) {
  // Node 2 is isolated; its (empty) pattern row must stay untouched and
  // gathering across it must not read out of range.
  CsrMatrix pattern =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  CsrMatrix trans = CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  std::vector<double> cur = {0.5, 0.5};
  std::vector<double> out(2, -1.0);
  ComputeMaskedProductCsr(trans, cur.data(), pattern, out.data());
  // out[(0,1)] = trans[0,1] · prev[1,1] but (1,1) is off-pattern → 0.
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(MaskedMultiplyTest, PanelScratchIsAlignedZeroAndPanelMajor) {
  EXPECT_EQ(PanelScratch(0).bytes(), 0u);
  PanelScratch scratch(65);  // two panels, the second one column wide
  ASSERT_EQ(scratch.num_panels(), 2u);
  EXPECT_EQ(scratch.bytes(), 2 * 64 * 65 * sizeof(double));
  for (size_t p = 0; p < scratch.num_panels(); ++p) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(scratch.panel(p)) % 64, 0u);
    for (size_t e = 0; e < 65 * 64; ++e) ASSERT_EQ(scratch.panel(p)[e], 0.0);
  }
  EXPECT_EQ(scratch.panel(1) - scratch.panel(0), 65 * 64);
}

/// The panel kernel against the oracle, bit for bit, on sizes around the
/// 64-column panel edge (and the 16-column sweep of the 2-wide copy) and
/// densities from sparse to complete, at every SIMD level, serial and
/// pooled. Each case runs two steps on one scratch, the second with a
/// fresh iterate, as CliqueRank reuses it.
TEST(MaskedMultiplyTest, PanelKernelMatchesOracleBitwise) {
  ThreadPool pool(4);
  for (size_t n : {1u, 5u, 17u, 63u, 64u, 65u, 130u, 200u}) {
    for (double density : {0.05, 0.3, 1.0}) {
      Fixture f = MakeFixture(n, density, 100 + n);
      const std::vector<double> first = RandomIterate(f, 200 + n);
      const std::vector<double> second = RandomIterate(f, 300 + n);
      const std::vector<double> want =
          MaskedProductOracle(f.trans, second, f.pattern);
      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel scoped(level);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string where =
              "n " + std::to_string(n) + " density " +
              std::to_string(density) + " level " + SimdLevelName(level) +
              (p ? " pooled" : " serial");
          const ExecContext ctx = ExecContext::WithPool(p);
          PanelScratch scratch(n);
          std::vector<double> out(f.pattern.nnz(), -1.0);
          ASSERT_TRUE(ComputeMaskedProductPanels(f.trans, first.data(),
                                                 f.pattern, &scratch,
                                                 out.data(), ctx)
                          .ok());
          ASSERT_TRUE(ComputeMaskedProductPanels(f.trans, second.data(),
                                                 f.pattern, &scratch,
                                                 out.data(), ctx)
                          .ok());
          EXPECT_EQ(out, want) << where;
        }
      }
    }
  }
}

TEST(MaskedMultiplyTest, PanelKernelHandlesIsolatedRows) {
  // Node 2 is isolated: its empty pattern row writes nothing.
  CsrMatrix pattern =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  CsrMatrix trans = CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  std::vector<double> cur = {0.5, 0.5};
  PanelScratch scratch(3);
  std::vector<double> out(2, -1.0);
  ASSERT_TRUE(ComputeMaskedProductPanels(trans, cur.data(), pattern, &scratch,
                                         out.data())
                  .ok());
  // out[(0,1)] = trans[0,1] · scratch(1,1), which is off-pattern → 0.
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(MaskedMultiplyTest, PanelKernelReportsCancellation) {
  Fixture f = MakeFixture(40, 0.3, 9);
  const std::vector<double> cur = RandomIterate(f, 10);
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  PanelScratch scratch(f.n);
  std::vector<double> out(f.pattern.nnz(), 0.0);
  EXPECT_TRUE(IsCancellation(ComputeMaskedProductPanels(
      f.trans, cur.data(), f.pattern, &scratch, out.data(), ctx)));
}

}  // namespace
}  // namespace gter
