#include "sparse/view.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace tasd::sparse {

namespace {

/// Indices (within [begin,end) of row) of the n largest-|v| elements,
/// ties toward lower index.
void select_top_n(std::span<const float> row, Index begin, Index end, int n,
                  std::vector<Index>& selected) {
  selected.clear();
  const Index len = end - begin;
  if (len == 0 || n == 0) return;
  std::vector<Index> idx(len);
  std::iota(idx.begin(), idx.end(), begin);
  const auto keep = std::min<Index>(static_cast<Index>(n), len);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(keep),
                    idx.end(), [&row](Index a, Index b) {
                      const float fa = std::fabs(row[a]);
                      const float fb = std::fabs(row[b]);
                      if (fa != fb) return fa > fb;
                      return a < b;
                    });
  selected.assign(idx.begin(), idx.begin() + static_cast<long>(keep));
}

}  // namespace

MatrixF nm_view(const MatrixF& matrix, const NMPattern& pattern) {
  return split_nm(matrix, pattern).view;
}

ViewSplit split_nm(const MatrixF& matrix, const NMPattern& pattern) {
  ViewSplit out{MatrixF(matrix.rows(), matrix.cols()), matrix};
  const auto m = static_cast<Index>(pattern.m);
  std::vector<Index> selected;
  for (Index r = 0; r < matrix.rows(); ++r) {
    auto src = matrix.row(r);
    auto view_row = out.view.row(r);
    auto res_row = out.residual.row(r);
    for (Index b = 0; b < matrix.cols(); b += m) {
      const Index end = std::min(matrix.cols(), b + m);
      select_top_n(src, b, end, pattern.n, selected);
      for (Index i : selected) {
        // Move the element: it appears in the view, vanishes from the
        // residual. No arithmetic, so the split is exact.
        view_row[i] = src[i];
        res_row[i] = 0.0F;
      }
    }
  }
  return out;
}

NMSparseMatrix extract_term_inplace(MatrixF& residual,
                                    const NMPattern& pattern) {
  const auto m = static_cast<Index>(pattern.m);
  const Index cols = residual.cols();

  std::vector<float> values;
  std::vector<std::uint32_t> col_index;
  std::vector<Index> row_ptr;
  row_ptr.reserve(residual.rows() + 1);
  row_ptr.push_back(0);

  std::vector<Index> selected;
  for (Index r = 0; r < residual.rows(); ++r) {
    auto row = residual.row(r);
    for (Index b = 0; b < cols; b += m) {
      const Index end = std::min(cols, b + m);
      select_top_n(row, b, end, pattern.n, selected);
      // Emit in ascending column order — the order NMSparseMatrix's
      // dense-compression constructor produces — skipping zeros the way
      // compression does. Extracted elements move: they vanish from the
      // residual, so view + residual stays exact.
      std::sort(selected.begin(), selected.end());
      for (Index i : selected) {
        if (row[i] != 0.0F) {
          values.push_back(row[i]);
          col_index.push_back(static_cast<std::uint32_t>(i));
        }
        row[i] = 0.0F;
      }
    }
    row_ptr.push_back(values.size());
  }
  return NMSparseMatrix::from_parts(pattern, residual.rows(), cols,
                                    std::move(values), std::move(col_index),
                                    std::move(row_ptr));
}

}  // namespace tasd::sparse
