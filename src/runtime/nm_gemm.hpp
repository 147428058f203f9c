// Structured sparse GEMM over compressed N:M operands — the CPU analogue
// of a sparse tensor core: it executes one MAC per *stored* value, so a
// 2:4-compressed operand does half the work of the dense kernel through
// the same inner loop.
//
// Execution calls the ExecPolicy's N:M kernel pointer (the parallel tile
// grid by default, bit-identical at every thread count); a single
// right-hand side runs as a batch of one. A TASD series runs from its
// DecompositionPlan (build_plan, or the PlanCache), whose terms are
// decomposed and compressed exactly once.
#pragma once

#include <span>
#include <vector>

#include "core/plan_cache.hpp"
#include "runtime/gemm_dispatch.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// C = A_compressed * B. A batch of one.
MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy = {});

/// C = Σ_i term_i * B over a plan's whole TASD series (distributive
/// execution of the decomposed GEMM, paper §3.2): a batch of one. Each
/// output element accumulates its terms in series order, matching the
/// serial term-major loop bit-for-bit. `b` must have plan.cols rows.
MatrixF series_gemm(const DecompositionPlan& plan, const MatrixF& b,
                    const ExecPolicy& policy = {});

/// cs[i] = Σ_t term_t * bs[i] for a batch of right-hand sides (ragged
/// widths allowed), sharing the plan's one set of terms across every
/// item. Each term runs through the policy's N:M kernel, which
/// partitions (output-row, column) tiles over the pool; output is
/// bit-identical to calling series_gemm() per item — the serving-path
/// invariant — at every thread count and batch size.
std::vector<MatrixF> series_gemm_batch(const DecompositionPlan& plan,
                                       std::span<const MatrixF> bs,
                                       const ExecPolicy& policy = {});

}  // namespace tasd::rt
