#ifndef GTER_MATRIX_CSR_MATRIX_H_
#define GTER_MATRIX_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gter {

/// Compressed sparse row matrix of doubles. Column indices within each row
/// are sorted ascending (the builder sorts and merges duplicates by
/// summation).
class CsrMatrix {
 public:
  /// One structural entry (used by the builder).
  struct Triplet {
    uint32_t row;
    uint32_t col;
    double value;
  };

  CsrMatrix() = default;

  /// Builds from an unordered triplet list; duplicate (row, col) entries are
  /// summed. Explicit zeros are kept (they are structural).
  static CsrMatrix FromTriplets(size_t rows, size_t cols,
                                std::vector<Triplet> triplets);

  /// Adopts arrays that already are CSR: `row_ptr` holds rows + 1
  /// non-decreasing offsets from 0 to nnz, and each row's column indices
  /// are below `cols` and strictly ascending. Checked in O(rows + nnz).
  static CsrMatrix FromCsr(size_t rows, size_t cols,
                           std::vector<size_t> row_ptr,
                           std::vector<uint32_t> col_idx,
                           std::vector<double> values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// Column indices of row `r`, sorted ascending.
  std::span<const uint32_t> RowCols(size_t r) const {
    return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Values of row `r`, parallel to RowCols(r).
  std::span<const double> RowValues(size_t r) const {
    return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Flat value array (nnz entries, row-major CSR order).
  std::span<const double> values() const { return values_; }
  std::span<double> mutable_values() { return values_; }

  /// Returns the value at (r, c), or 0 when the entry is not structural.
  /// O(log nnz(row)) via binary search.
  double At(size_t r, size_t c) const;

  /// Returns the flat CSR position of entry (r, c), or -1 when absent.
  int64_t PositionOf(size_t r, size_t c) const;

  /// Flat CSR position of the first entry of row `r` (== the position of
  /// every entry in RowCols(r)/RowValues(r) offset by its index).
  size_t RowStart(size_t r) const { return row_ptr_[r]; }

  /// Divides each row by its sum (rows with zero sum are left untouched) —
  /// turns a non-negative weight matrix into a stochastic transition matrix.
  void NormalizeRows();

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;     // rows+1 entries
  std::vector<uint32_t> col_idx_;   // nnz entries
  std::vector<double> values_;      // nnz entries
};

}  // namespace gter

#endif  // GTER_MATRIX_CSR_MATRIX_H_
