#include "gter/matrix/csr_matrix.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

CsrMatrix SmallMatrix() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  return CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}});
}

TEST(CsrMatrixTest, BuildAndShape) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
}

TEST(CsrMatrixTest, RowAccessSortedByColumn) {
  CsrMatrix m = CsrMatrix::FromTriplets(2, 4, {{0, 3, 1.0}, {0, 1, 2.0}});
  auto cols = m.RowCols(0);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 3u);
  EXPECT_DOUBLE_EQ(m.RowValues(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(m.RowValues(0)[1], 1.0);
}

TEST(CsrMatrixTest, DuplicateTripletsAreSummed) {
  CsrMatrix m = CsrMatrix::FromTriplets(1, 1, {{0, 0, 1.5}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 4.0);
}

TEST(CsrMatrixTest, AtReturnsZeroOffPattern) {
  CsrMatrix m = SmallMatrix();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 4.0);
}

TEST(CsrMatrixTest, PositionOf) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.PositionOf(0, 0), 0);
  EXPECT_EQ(m.PositionOf(0, 2), 1);
  EXPECT_EQ(m.PositionOf(2, 0), 2);
  EXPECT_EQ(m.PositionOf(0, 1), -1);
  EXPECT_EQ(m.PositionOf(1, 0), -1);
}

TEST(CsrMatrixTest, EmptyRowHasEmptySpans) {
  CsrMatrix m = SmallMatrix();
  EXPECT_TRUE(m.RowCols(1).empty());
  EXPECT_TRUE(m.RowValues(1).empty());
}

TEST(CsrMatrixTest, NormalizeRowsMakesStochastic) {
  CsrMatrix m = SmallMatrix();
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m.At(0, 0) + m.At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0) + m.At(2, 1), 1.0);
  EXPECT_NEAR(m.At(0, 0), 1.0 / 3.0, 1e-12);
}

TEST(CsrMatrixTest, NormalizeSkipsEmptyAndZeroRows) {
  CsrMatrix m = CsrMatrix::FromTriplets(2, 2, {{0, 0, 0.0}});
  m.NormalizeRows();  // must not divide by zero
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(CsrMatrixTest, ExplicitZerosAreStructural) {
  CsrMatrix m = CsrMatrix::FromTriplets(1, 2, {{0, 1, 0.0}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.PositionOf(0, 1), 0);
}

}  // namespace
}  // namespace gter
