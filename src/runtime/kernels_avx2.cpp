// AVX2/FMA GEMM kernels. Compiled with -mavx2 -mfma; executed only when
// runtime detection (tasd::avx2_available) put them in the kernel table.
//
// The bit-exactness discipline (docs/kernels.md): one accumulator chain
// per output element, advanced by exactly one fused multiply-add per
// k-step (dense) or stored value (N:M), k/value order ascending. The
// full-vector blocks, the masked-vector column tail and the single-column
// row blocks perform the *same* rounded operations per element, so which
// path computes an element — decided by tile boundaries, batch packing,
// or thread partitioning — never changes its bits.
//
// The loop structure fights memory traffic, the regime that caps GEMM
// past L2-sized operands: a 512-column macro tile is processed for a
// whole block of output rows before moving right, so the B tile is
// reused across the block instead of being re-streamed per row, and the
// dense core accumulates 4 output rows per pass (each B vector load
// feeds 4 FMA chains). None of this reorders any single element's chain.
#include "runtime/kernels_avx2.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tasd::rt {

namespace {

// Column macro tile: B rows' 2 KB segments stay cache-resident while a
// row block passes over them (matches the scalar kernels' kTileN).
constexpr Index kMacroTileN = 512;

/// Lane mask enabling the first `tail` (1..7) of 8 lanes. Masked loads
/// return 0.0f in disabled lanes and never fault on them, masked stores
/// leave them untouched, so a sub-vector column tail runs the same fused
/// accumulator chain as a full vector block with the accumulator in a
/// register (a runtime-bounded scalar tail would force it through the
/// stack, putting a store-forward on the chain's critical path).
inline __m256i tail_mask(Index tail) {
  alignas(32) static constexpr int kTable[16] = {-1, -1, -1, -1, -1, -1, -1,
                                                 -1, 0,  0,  0,  0,  0,  0,
                                                 0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTable + 8 - tail));
}

// ------------------------------------------------------------ dense core

/// Accumulate kRows consecutive output rows of C over columns [c0, c1):
/// 16-column register blocks (kRows x 2 vector accumulators), so each
/// loaded B vector feeds kRows FMA chains; then an 8-column block and a
/// std::fmaf scalar remainder with the identical per-element chain.
template <int kRows>
void dense_rows_avx2(const float* __restrict arow, Index k, const float* bd,
                     Index n, float* __restrict crow, Index c0, Index c1) {
  Index j = c0;
  for (; j + 16 <= c1; j += 16) {
    __m256 acc0[kRows], acc1[kRows];
    for (int r = 0; r < kRows; ++r) {
      acc0[r] = _mm256_loadu_ps(crow + r * n + j);
      acc1[r] = _mm256_loadu_ps(crow + r * n + j + 8);
    }
    for (Index p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(bd + p * n + j);
      const __m256 b1 = _mm256_loadu_ps(bd + p * n + j + 8);
      for (int r = 0; r < kRows; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r * k + p]);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < kRows; ++r) {
      _mm256_storeu_ps(crow + r * n + j, acc0[r]);
      _mm256_storeu_ps(crow + r * n + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= c1; j += 8) {
    __m256 acc[kRows];
    for (int r = 0; r < kRows; ++r) acc[r] = _mm256_loadu_ps(crow + r * n + j);
    for (Index p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(bd + p * n + j);
      for (int r = 0; r < kRows; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r * k + p]), bv, acc[r]);
    }
    for (int r = 0; r < kRows; ++r) _mm256_storeu_ps(crow + r * n + j, acc[r]);
  }
  if (j < c1) {
    // Sub-vector column tail: one masked-vector pass, the same
    // k-ascending fused chain per element as the full blocks.
    const __m256i mask = tail_mask(c1 - j);
    __m256 acc[kRows];
    for (int r = 0; r < kRows; ++r)
      acc[r] = _mm256_maskload_ps(crow + r * n + j, mask);
    for (Index p = 0; p < k; ++p) {
      const __m256 bv = _mm256_maskload_ps(bd + p * n + j, mask);
      for (int r = 0; r < kRows; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r * k + p]), bv, acc[r]);
    }
    for (int r = 0; r < kRows; ++r)
      _mm256_maskstore_ps(crow + r * n + j, mask, acc[r]);
  }
}

// -------------------------------------------------------------- N:M core

/// Accumulate kVecs*8 columns of C row r from the row's stored values,
/// in stored order, with the accumulators held in registers across the
/// whole stream.
template <int kVecs>
void nm_row_block_avx2(const float* values, const std::uint32_t* col,
                       Index s0, Index s1, const float* bd,
                       float* __restrict crow, Index n, Index j) {
  __m256 acc[kVecs];
  for (int v = 0; v < kVecs; ++v)
    acc[v] = _mm256_loadu_ps(crow + j + 8 * v);
  for (Index s = s0; s < s1; ++s) {
    const __m256 av = _mm256_set1_ps(values[s]);
    const float* brow = bd + Index{col[s]} * n + j;
    for (int v = 0; v < kVecs; ++v)
      acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8 * v), acc[v]);
  }
  for (int v = 0; v < kVecs; ++v)
    _mm256_storeu_ps(crow + j + 8 * v, acc[v]);
}

/// Single-column tile: column j of rows [r0, r1). One row's chain is a
/// serial run of dependent FMAs, so rows go in blocks of kGemvRows whose
/// independent chains advance together over the block's common stored
/// prefix; each row then finishes its own values. Rows are interleaved,
/// never the values of one row: every element still takes one
/// single-rounded FMA per stored value, in stored order, from its C value.
constexpr Index kGemvRows = 8;

void nm_gemv_rows(const float* values, const std::uint32_t* col,
                  const Index* row_ptr, const float* x, Index n,
                  float* c, Index r0, Index r1, Index j) {
  const auto tail = [&](Index r, Index s, float acc) {
    for (const Index s1 = row_ptr[r + 1]; s < s1; ++s)
      acc = std::fma(values[s], x[Index{col[s]} * n + j], acc);
    c[r * n + j] = acc;
  };
  Index r = r0;
  for (; r + kGemvRows <= r1; r += kGemvRows) {
    Index common = row_ptr[r + 1] - row_ptr[r];
    for (Index i = 1; i < kGemvRows; ++i)
      common = std::min(common, row_ptr[r + i + 1] - row_ptr[r + i]);
    const float* v[kGemvRows];
    const std::uint32_t* ci[kGemvRows];
    float acc[kGemvRows];
    for (Index i = 0; i < kGemvRows; ++i) {
      v[i] = values + row_ptr[r + i];
      ci[i] = col + row_ptr[r + i];
      acc[i] = c[(r + i) * n + j];
    }
    for (Index t = 0; t < common; ++t)
      for (Index i = 0; i < kGemvRows; ++i)
        acc[i] = std::fma(v[i][t], x[Index{ci[i][t]} * n + j], acc[i]);
    for (Index i = 0; i < kGemvRows; ++i)
      tail(r + i, row_ptr[r + i] + common, acc[i]);
  }
  for (; r < r1; ++r) tail(r, row_ptr[r], c[r * n + j]);
}

}  // namespace

void dense_gemm_tile_avx2(const MatrixF& a, const MatrixF& b, MatrixF& c,
                          Index row_begin, Index row_end, Index col_begin,
                          Index col_end) {
  const Index k = a.cols(), n = b.cols();
  for (Index jt = col_begin; jt < col_end; jt += kMacroTileN) {
    const Index je = std::min(col_end, jt + kMacroTileN);
    Index i = row_begin;
    for (; i + 4 <= row_end; i += 4)
      dense_rows_avx2<4>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                         jt, je);
    for (; i + 2 <= row_end; i += 2)
      dense_rows_avx2<2>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                         jt, je);
    if (i < row_end)
      dense_rows_avx2<1>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                         jt, je);
  }
}

void nm_gemm_tile_avx2(const sparse::NMSparseMatrix& a, const MatrixF& b,
                       MatrixF& c, Index row_begin, Index row_end,
                       Index col_begin, Index col_end) {
  const Index n = b.cols();
  const float* values = a.values().data();
  const std::uint32_t* col = a.col_index().data();
  const auto& row_ptr = a.row_ptr();
  const float* bd = b.data();

  if (col_end - col_begin == 1) {  // the GEMV serving case
    nm_gemv_rows(values, col, row_ptr.data(), bd, n, c.data(), row_begin,
                 row_end, col_begin);
    return;
  }
  for (Index jt = col_begin; jt < col_end; jt += kMacroTileN) {
    const Index je = std::min(col_end, jt + kMacroTileN);
    for (Index r = row_begin; r < row_end; ++r) {
      float* __restrict crow = c.data() + r * n;
      const Index s0 = row_ptr[r], s1 = row_ptr[r + 1];
      // Each block width costs one pass over the row's stream, so take
      // the widest block that fits (32/16/8 columns) and finish the
      // sub-vector tail in a single pass too — the serving path's narrow
      // packed batches (a few width-1 queries) live entirely in the
      // 16/8/tail cases.
      Index j = jt;
      for (; j + 32 <= je; j += 32)
        nm_row_block_avx2<4>(values, col, s0, s1, bd, crow, n, j);
      if (j + 16 <= je) {
        nm_row_block_avx2<2>(values, col, s0, s1, bd, crow, n, j);
        j += 16;
      }
      if (j + 8 <= je) {
        nm_row_block_avx2<1>(values, col, s0, s1, bd, crow, n, j);
        j += 8;
      }
      if (j < je) {
        // Masked-vector tail: one pass, register accumulator,
        // stored-value-ascending fused chain per element.
        const __m256i mask = tail_mask(je - j);
        __m256 acc = _mm256_maskload_ps(crow + j, mask);
        for (Index s = s0; s < s1; ++s) {
          const __m256 bv =
              _mm256_maskload_ps(bd + Index{col[s]} * n + j, mask);
          acc = _mm256_fmadd_ps(_mm256_set1_ps(values[s]), bv, acc);
        }
        _mm256_maskstore_ps(crow + j, mask, acc);
      }
    }
  }
}

}  // namespace tasd::rt
