#include "gter/matrix/csr_matrix.h"

#include <algorithm>
#include <utility>

#include "gter/common/status.h"

namespace gter {

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    GTER_CHECK(t.row < rows && t.col < cols);
    double sum = 0.0;
    size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row &&
           triplets[j].col == t.col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(t.col);
    m.values_.push_back(sum);
    ++m.row_ptr_[t.row + 1];
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::FromCsr(size_t rows, size_t cols,
                             std::vector<size_t> row_ptr,
                             std::vector<uint32_t> col_idx,
                             std::vector<double> values) {
  GTER_CHECK(row_ptr.size() == rows + 1 && row_ptr[0] == 0);
  GTER_CHECK(row_ptr[rows] == col_idx.size());
  GTER_CHECK(values.size() == col_idx.size());
  for (size_t r = 0; r < rows; ++r) {
    GTER_CHECK(row_ptr[r] <= row_ptr[r + 1]);
    for (size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      GTER_CHECK(col_idx[e] < cols);
      GTER_CHECK(e == row_ptr[r] || col_idx[e - 1] < col_idx[e]);
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::At(size_t r, size_t c) const {
  int64_t pos = PositionOf(r, c);
  return pos < 0 ? 0.0 : values_[static_cast<size_t>(pos)];
}

int64_t CsrMatrix::PositionOf(size_t r, size_t c) const {
  GTER_CHECK(r < rows_ && c < cols_);
  const uint32_t* begin = col_idx_.data() + row_ptr_[r];
  const uint32_t* end = col_idx_.data() + row_ptr_[r + 1];
  const uint32_t* it = std::lower_bound(begin, end, static_cast<uint32_t>(c));
  if (it == end || *it != c) return -1;
  return static_cast<int64_t>(it - col_idx_.data());
}

void CsrMatrix::NormalizeRows() {
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) sum += values_[p];
    if (sum <= 0.0) continue;
    double inv = 1.0 / sum;
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) values_[p] *= inv;
  }
}

}  // namespace gter
