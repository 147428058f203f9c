// Compressed N:M structured sparse matrix.
//
// In memory every term is a per-row stream of stored values, the way a
// structured-sparse datapath consumes them: one (value, column) pair per
// stored non-zero and a row pointer, so a GEMM costs one MAC per stored
// value and nothing per empty M-block. Within a row the columns ascend,
// so the values of each M-aligned block stay contiguous and at most N
// long — the N:M invariant, checked once when the stream is built or
// loaded and never walked per query. The hardware-style footprint in
// storage_bytes() (and the metadata bit cost model in src/accel/) still
// charges N slots and N*ceil(log2(M)) index bits per block, the way the
// hardware would.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/pattern.hpp"
#include "tensor/matrix.hpp"

namespace tasd::sparse {

/// Compressed N:M matrix. Immutable after construction.
class NMSparseMatrix {
 public:
  NMSparseMatrix() = default;

  /// Compress `dense`, which must satisfy `pattern` (throws otherwise —
  /// use nm_view()/decomposition to make a conforming matrix first).
  NMSparseMatrix(const MatrixF& dense, NMPattern pattern);

  /// Assemble from a pre-built stream (the direct-compression
  /// decomposition path and the artifact loader build these arrays
  /// without a dense intermediate). Every invariant documented on the
  /// accessors below is checked here; a violation throws
  /// kInvalidArgument.
  static NMSparseMatrix from_parts(NMPattern pattern, Index rows, Index cols,
                                   std::vector<float> values,
                                   std::vector<std::uint32_t> col_index,
                                   std::vector<Index> row_ptr);

  [[nodiscard]] const NMPattern& pattern() const { return pattern_; }
  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }

  /// Number of stored non-zeros.
  [[nodiscard]] Index nnz() const { return values_.size(); }

  /// Sparsity degree of the stored matrix (fraction of zeros).
  [[nodiscard]] double sparsity() const;

  /// Decompress back to dense (exact: compression stores values verbatim).
  [[nodiscard]] MatrixF to_dense() const;

  /// Storage footprint in bytes under a hardware-style encoding:
  /// 4B per retained slot (N slots per block whether used or not) plus
  /// metadata bits (N * ceil(log2(M)) bits per block, rounded up per row).
  [[nodiscard]] Index storage_bytes() const;

  /// Dense storage footprint for comparison.
  [[nodiscard]] Index dense_bytes() const { return rows_ * cols_ * 4; }

  /// Number of M-aligned blocks per row (the hardware encoding's unit).
  [[nodiscard]] Index blocks_per_row() const;

  // --- the stream the compressed GEMM kernels walk ---

  /// Stored values; row r's span [row_ptr[r], row_ptr[r+1]).
  [[nodiscard]] const std::vector<float>& values() const { return values_; }
  /// One column per value, strictly ascending within a row, < cols(); a
  /// row holds at most N columns in any M-aligned block.
  [[nodiscard]] const std::vector<std::uint32_t>& col_index() const {
    return col_index_;
  }
  /// rows()+1 non-decreasing entries from 0 to nnz().
  [[nodiscard]] const std::vector<Index>& row_ptr() const { return row_ptr_; }

 private:
  NMPattern pattern_{};
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<float> values_;
  std::vector<std::uint32_t> col_index_;
  std::vector<Index> row_ptr_{0};  // rows_+1 entries
};

}  // namespace tasd::sparse
