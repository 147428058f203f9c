// Reference (correctness-oracle) GEMM. The optimized kernels live in
// src/runtime/ in its kernel table (which also lists this oracle as
// the "reference" dense kernel); everything is validated
// against this implementation.
#pragma once

#include "tensor/matrix.hpp"

namespace tasd {

/// C = A * B. A is MxK, B is KxN; returns MxN.
MatrixF gemm_ref(const MatrixF& a, const MatrixF& b);

/// C += A * B into an existing accumulator (shapes checked).
void gemm_ref_accumulate(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// Row-range core of gemm_ref_accumulate: accumulate output rows
/// [row_begin, row_end) only. Rows are independent, so running disjoint
/// ranges on different threads is bit-identical to the serial loop —
/// this is the unit the parallel execution layer partitions over.
void gemm_ref_accumulate_rows(const MatrixF& a, const MatrixF& b, MatrixF& c,
                              Index row_begin, Index row_end);

}  // namespace tasd
