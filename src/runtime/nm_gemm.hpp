// Structured sparse GEMM over compressed N:M operands — the CPU analogue
// of a sparse tensor core: it executes one MAC per *stored* value, so a
// 2:4-compressed operand does half the work of the dense kernel through
// the same inner loop.
//
// Execution calls the ExecPolicy's N:M kernel pointer (the parallel tile
// grid by default, bit-identical at every thread count); a single
// right-hand side runs as a batch of one. TASD series can run
// from a cached DecompositionPlan so the weights are decomposed and
// compressed exactly once.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "runtime/gemm_dispatch.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// C = A_compressed * B. A batch of one.
MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy = {});

/// C = Σ_i term_i * B over a whole TASD series (distributive execution of
/// the decomposed GEMM, paper §3.2). Terms are pre-compressed once.
class TasdSeriesGemm {
 public:
  /// Compress the decomposition's terms for repeated execution.
  explicit TasdSeriesGemm(const Decomposition& decomposition);

  /// Execute a cached plan's terms (shares the plan's compressed storage;
  /// no copy, no re-decomposition).
  explicit TasdSeriesGemm(std::shared_ptr<const DecompositionPlan> plan);

  /// Execute against one dense right-hand side: a batch of one. Each
  /// output element accumulates its terms in series order, matching the
  /// serial term-major loop bit-for-bit.
  [[nodiscard]] MatrixF multiply(const MatrixF& b,
                                 const ExecPolicy& policy = {}) const;

  /// Execute against a batch of dense right-hand sides (ragged widths
  /// allowed), sharing this series' one decomposition plan across every
  /// item. Each term runs through the policy's N:M kernel, which
  /// partitions (output-row, column) tiles over the pool; output is
  /// bit-identical to calling multiply() per item — the serving-path
  /// invariant — at every thread count and batch size.
  [[nodiscard]] std::vector<MatrixF> multiply_batch(
      std::span<const MatrixF> bs, const ExecPolicy& policy = {}) const;

  /// Stored non-zeros across terms.
  [[nodiscard]] Index nnz() const;

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t term_count() const { return terms().size(); }

 private:
  [[nodiscard]] const std::vector<sparse::NMSparseMatrix>& terms() const {
    return plan_ ? plan_->terms : owned_terms_;
  }

  /// cs[i] += Σ_t term_t * bs[i], term-major through the policy's kernel.
  void accumulate(std::span<const MatrixF> bs, std::span<MatrixF> cs,
                  const ExecPolicy& policy) const;

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<sparse::NMSparseMatrix> owned_terms_;
  std::shared_ptr<const DecompositionPlan> plan_;
};

}  // namespace tasd::rt
