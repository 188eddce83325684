#include "gter/matrix/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "gter/common/status.h"

namespace gter {

DenseMatrix::DenseMatrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

void DenseMatrix::Scale(double s) {
  for (auto& v : data_) v *= s;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  GTER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

double DenseMatrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

}  // namespace gter
