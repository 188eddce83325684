#include "gter/matrix/dense_matrix.h"

#include <algorithm>

namespace gter {

DenseMatrix::DenseMatrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

}  // namespace gter
