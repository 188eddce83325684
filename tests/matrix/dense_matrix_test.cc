#include "gter/matrix/dense_matrix.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(DenseMatrixTest, ConstructionAndFill) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
  m.Fill(0.25);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.25);
}

TEST(DenseMatrixTest, ElementAccessIsRowMajor) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.data()[0], 1);
  EXPECT_DOUBLE_EQ(m.data()[1], 2);
  EXPECT_DOUBLE_EQ(m.data()[2], 3);
  EXPECT_DOUBLE_EQ(m.row(1)[1], 4);
}

TEST(DenseMatrixTest, Identity) {
  DenseMatrix id = DenseMatrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

}  // namespace
}  // namespace gter
