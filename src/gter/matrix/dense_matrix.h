#ifndef GTER_MATRIX_DENSE_MATRIX_H_
#define GTER_MATRIX_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

namespace gter {

/// Row-major dense matrix of doubles (the SimRank baseline's similarity
/// matrices). CliqueRank needs no general dense product: the paper's Eigen
/// GEMM is replaced by the masked kernels of masked_multiply.h, which
/// compute M_t × (M^{k-1} ⊙ M_n) only on the edge pattern.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Creates a rows×cols matrix initialized to `fill`.
  DenseMatrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Raw row-major storage (rows()*cols() doubles).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row `r`.
  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Identity matrix of size n.
  static DenseMatrix Identity(size_t n);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace gter

#endif  // GTER_MATRIX_DENSE_MATRIX_H_
