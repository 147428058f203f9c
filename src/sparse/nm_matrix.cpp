#include "sparse/nm_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace tasd::sparse {

namespace {

/// Columns are stored as u32.
void check_shape(Index cols) {
  TASD_CHECK_MSG(
      cols <= Index{std::numeric_limits<std::uint32_t>::max()} + 1,
      "column index stored as u32; got " << cols << " columns");
}

}  // namespace

NMSparseMatrix::NMSparseMatrix(const MatrixF& dense, NMPattern pattern)
    : pattern_(pattern), rows_(dense.rows()), cols_(dense.cols()) {
  TASD_CHECK_MSG(satisfies(dense, pattern),
                 "matrix does not satisfy " << pattern.str()
                                            << "; project it to a view first");
  check_shape(cols_);
  row_ptr_.reserve(rows_ + 1);
  for (Index r = 0; r < rows_; ++r) {
    auto row = dense.row(r);
    for (Index c = 0; c < cols_; ++c) {
      if (row[c] != 0.0F) {
        values_.push_back(row[c]);
        col_index_.push_back(static_cast<std::uint32_t>(c));
      }
    }
    row_ptr_.push_back(values_.size());
  }
}

NMSparseMatrix NMSparseMatrix::from_parts(NMPattern pattern, Index rows,
                                          Index cols, std::vector<float> values,
                                          std::vector<std::uint32_t> col_index,
                                          std::vector<Index> row_ptr) {
  check_shape(cols);
  TASD_CHECK_MSG(row_ptr.size() == rows + 1,
                 "row_ptr must hold rows+1 entries");
  TASD_CHECK(values.size() == col_index.size());
  TASD_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == values.size() &&
                     std::is_sorted(row_ptr.begin(), row_ptr.end()),
                 "row_ptr must be non-decreasing from 0 to nnz");
  // One pass over the stream: columns in range and strictly ascending per
  // row, and at most N of them in any M-aligned block. The kernels rely
  // on these and never re-check them per query.
  const auto m = static_cast<std::uint32_t>(pattern.m);
  const auto n = static_cast<Index>(pattern.n);
  for (Index r = 0; r < rows; ++r) {
    Index block_end = 0, in_block = 0;
    for (Index s = row_ptr[r]; s < row_ptr[r + 1]; ++s) {
      const std::uint32_t c = col_index[s];
      const bool first = s == row_ptr[r];
      TASD_CHECK_MSG(c < cols, "row " << r << ": column " << c << " >= cols");
      TASD_CHECK_MSG(first || c > col_index[s - 1],
                     "row " << r << ": columns not strictly ascending");
      if (first || c >= block_end) {
        block_end = Index{c / m + 1} * m;
        in_block = 0;
      }
      ++in_block;
      TASD_CHECK_MSG(in_block <= n,
                     "row " << r << ": more than N values in one block");
    }
  }
  NMSparseMatrix out;
  out.pattern_ = pattern;
  out.rows_ = rows;
  out.cols_ = cols;
  out.values_ = std::move(values);
  out.col_index_ = std::move(col_index);
  out.row_ptr_ = std::move(row_ptr);
  return out;
}

Index NMSparseMatrix::blocks_per_row() const {
  const auto m = static_cast<Index>(pattern_.m);
  return (cols_ + m - 1) / m;
}

double NMSparseMatrix::sparsity() const {
  const Index total = rows_ * cols_;
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

MatrixF NMSparseMatrix::to_dense() const {
  MatrixF out(rows_, cols_);
  for (Index r = 0; r < rows_; ++r)
    for (Index s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s)
      out(r, col_index_[s]) = values_[s];
  return out;
}

Index NMSparseMatrix::storage_bytes() const {
  // Hardware-style: every block reserves N value slots (4B each) and
  // N * ceil(log2(M)) metadata bits, independent of actual occupancy.
  const Index blocks = rows_ * blocks_per_row();
  const auto index_bits = static_cast<Index>(
      std::bit_width(static_cast<unsigned>(pattern_.m - 1)));
  const Index value_bytes = blocks * static_cast<Index>(pattern_.n) * 4;
  const Index meta_bits = blocks * static_cast<Index>(pattern_.n) * index_bits;
  return value_bytes + (meta_bits + 7) / 8;
}

}  // namespace tasd::sparse
