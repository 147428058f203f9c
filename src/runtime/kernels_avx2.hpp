// AVX2/FMA vectorized GEMM tile cores — the SIMD rows of the kernel
// table (runtime/gemm_dispatch.hpp).
//
// Table names (see docs/kernels.md for the author guide):
//   dense  "dense-avx2"  (row, column) tile grid, 8-lane FMA over columns
//   N:M    "nm-avx2"     same grid over the compressed traversal
//
// Bit-exactness model: every output element accumulates along a single
// k-ascending (dense) / stored-value-ascending (N:M) chain of *fused*
// multiply-adds; sub-vector column tails run the same chain through
// masked vector ops, one rounding per step. The per-element value is
// therefore a pure function of the operands, independent of thread count,
// tile shape, column offset, and batch packing: each AVX2 kernel is
// bit-identical to its own serial run and a batched call is bit-identical
// to looping it over one-item batches. The FMA chain rounds differently
// from the scalar mul+add kernels ("tiled-parallel" etc.), so AVX2 and
// scalar kernels form two internally-consistent families that agree to
// float tolerance, not bitwise (the property tests pin both claims).
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); the kernel table lists the kernels built on these
// cores only when tasd::avx2_available() says the executing CPU/OS can
// run them.
#pragma once

#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// Dense C += A*B restricted to output rows [row_begin, row_end) and
/// output columns [col_begin, col_end). Per-element chain order is the
/// same for every tile shape, so any disjoint tiling of the output
/// reproduces the full-range result bit-for-bit (within the AVX2 family).
void dense_gemm_tile_avx2(const MatrixF& a, const MatrixF& b, MatrixF& c,
                          Index row_begin, Index row_end, Index col_begin,
                          Index col_end);

/// Compressed N:M C += A*B restricted to an (output-row, output-column)
/// tile, with the same bit-exactness property.
void nm_gemm_tile_avx2(const sparse::NMSparseMatrix& a, const MatrixF& b,
                       MatrixF& c, Index row_begin, Index row_end,
                       Index col_begin, Index col_end);

}  // namespace tasd::rt
