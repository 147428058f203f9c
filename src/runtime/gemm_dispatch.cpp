#include "runtime/gemm_dispatch.hpp"

#include <algorithm>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "tensor/gemm_ref.hpp"

#ifdef TASD_HAVE_AVX2_KERNELS
#include "runtime/kernels_avx2.hpp"
#endif

namespace tasd::rt {

// ------------------------------------------------- packed batch layout
// The parallel kernels lay the batch items' columns side by side in one
// wide matrix: packed(r, off[i] + j) == item_i(r, j). Packing and
// unpacking are exact copies, and both GEMM tile cores accumulate each
// output element with a fixed k-ascending MAC order regardless of the
// column range, so running the cores on the packed pair is bit-identical
// to looping the kernel over one-item batches — while the inner j loops
// span the whole batch, amortizing per-k-step overhead (the whole point
// of the serving path on small per-query widths).

std::vector<Index> batch_offsets(std::span<const MatrixF> items) {
  std::vector<Index> off(items.size() + 1, 0);
  for (std::size_t i = 0; i < items.size(); ++i)
    off[i + 1] = off[i] + items[i].cols();
  return off;
}

MatrixF pack_batch(std::span<const MatrixF> items,
                   const std::vector<Index>& off) {
  const Index rows = items.empty() ? 0 : items[0].rows();
  MatrixF packed(rows, off.back());
  for (Index r = 0; r < rows; ++r) {
    float* prow = packed.data() + r * off.back();
    for (std::size_t i = 0; i < items.size(); ++i)
      std::copy_n(items[i].data() + r * items[i].cols(), items[i].cols(),
                  prow + off[i]);
  }
  return packed;
}

void unpack_batch(const MatrixF& packed, const std::vector<Index>& off,
                  std::span<MatrixF> items) {
  for (Index r = 0; r < packed.rows(); ++r) {
    const float* prow = packed.data() + r * off.back();
    for (std::size_t i = 0; i < items.size(); ++i)
      std::copy_n(prow + off[i], items[i].cols(),
                  items[i].data() + r * items[i].cols());
  }
}

// ------------------------------------------------------------ tile cores
// The serial units the kernels partition over.

namespace {

void dense_gemm_tile(const MatrixF& a, const MatrixF& b, MatrixF& c,
                     Index row_begin, Index row_end, Index col_begin,
                     Index col_end) {
  const Index k = a.cols(), n = b.cols();
  // j-tile sized to keep the C row segment plus four B row segments in
  // L1 while streaming; per-element accumulation order (k ascending,
  // 4-wide) is independent of the tile size.
  constexpr Index kTileN = 512;
  for (Index i = row_begin; i < row_end; ++i) {
    float* __restrict crow = c.data() + i * n;
    const float* arow = a.data() + i * k;
    for (Index jt = col_begin; jt < col_end; jt += kTileN) {
      const Index je = std::min(col_end, jt + kTileN);
      Index p = 0;
      for (; p + 4 <= k; p += 4) {
        const float a0 = arow[p], a1 = arow[p + 1];
        const float a2 = arow[p + 2], a3 = arow[p + 3];
        const float* __restrict b0 = b.data() + p * n;
        const float* __restrict b1 = b0 + n;
        const float* __restrict b2 = b1 + n;
        const float* __restrict b3 = b2 + n;
        for (Index j = jt; j < je; ++j)
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
      for (; p < k; ++p) {
        const float av = arow[p];
        const float* __restrict brow = b.data() + p * n;
        for (Index j = jt; j < je; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void nm_gemm_tile(const sparse::NMSparseMatrix& a, const MatrixF& b,
                  MatrixF& c, Index row_begin, Index row_end,
                  Index col_begin, Index col_end) {
  const Index n = b.cols();
  const auto& values = a.values();
  const auto& col = a.col_index();
  const auto& row_ptr = a.row_ptr();

  for (Index r = row_begin; r < row_end; ++r) {
    float* __restrict crow = c.data() + r * n;
    for (Index s = row_ptr[r]; s < row_ptr[r + 1]; ++s) {
      const float av = values[s];
      const float* __restrict brow = b.data() + Index{col[s]} * n;
      for (Index j = col_begin; j < col_end; ++j) crow[j] += av * brow[j];
    }
  }
}

// Row grain: below this many rows per chunk the fork/join overhead beats
// the win; partitioning stays deterministic either way.
constexpr std::size_t kRowGrain = 8;

// Column grain of the tile grid: wide enough that the shared A-element
// loads of one k-step amortize over the tile's columns, small enough
// that a short-m call still fans out over the pool.
constexpr Index kBatchColGrain = 128;

/// Run `Tile(a, b, c, r0, r1, c0, c1)` over a deterministic (row-chunk,
/// column-chunk) grid covering a.rows() x [0, b.cols()).
template <auto Tile, class A>
void run_tile_grid(ThreadPool& pool, const A& a, const MatrixF& b,
                   MatrixF& c) {
  const Index rows = a.rows(), total_cols = b.cols();
  if (rows == 0 || total_cols == 0) return;
  const Index row_chunks = (rows + kRowGrain - 1) / kRowGrain;
  const Index col_chunks = (total_cols + kBatchColGrain - 1) / kBatchColGrain;
  pool.parallel_for(0, row_chunks * col_chunks, 1, [&](std::size_t t0,
                                                       std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const Index rc = t / col_chunks, cc = t % col_chunks;
      Tile(a, b, c, rc * kRowGrain,
           std::min<Index>(rows, (rc + 1) * kRowGrain), cc * kBatchColGrain,
           std::min<Index>(total_cols, (cc + 1) * kBatchColGrain));
    }
  });
}

/// The parallel kernels ("tiled-parallel", "row-parallel", the AVX2
/// pair): single-item batches run the tile grid in place; larger batches
/// pack B and C once, run the grid over the packed pair, and unpack. Any
/// tile core whose per-element MAC order is independent of the column
/// range keeps the batched-equals-looped contract through this body.
template <auto Tile, class A>
void parallel_kernel(const A& a, std::span<const MatrixF> bs,
                     std::span<MatrixF> cs, ThreadPool& pool) {
  if (bs.size() == 1) {  // already one contiguous RHS: no pack/unpack
    run_tile_grid<Tile>(pool, a, bs[0], cs[0]);
    return;
  }
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp = pack_batch({cs.data(), cs.size()}, off);
  run_tile_grid<Tile>(pool, a, bp, cp);
  unpack_batch(cp, off, cs);
}

/// The serial kernels ("tiled-serial", "serial"): one full-range tile
/// per item, on the calling thread.
template <auto Tile, class A>
void serial_kernel(const A& a, std::span<const MatrixF> bs,
                   std::span<MatrixF> cs, ThreadPool& /*pool*/) {
  for (std::size_t i = 0; i < bs.size(); ++i)
    Tile(a, bs[i], cs[i], 0, a.rows(), 0, bs[i].cols());
}

void dense_reference(const MatrixF& a, std::span<const MatrixF> bs,
                     std::span<MatrixF> cs, ThreadPool& /*pool*/) {
  for (std::size_t i = 0; i < bs.size(); ++i)
    gemm_ref_accumulate(a, bs[i], cs[i]);
}

// The tables: scalar default first, AVX2 rows last, so without AVX2 a
// table is its scalar prefix.
constexpr DenseEntry kDense[] = {
    {"tiled-parallel", parallel_kernel<dense_gemm_tile, MatrixF>},
    {"tiled-serial", serial_kernel<dense_gemm_tile, MatrixF>},
    {"reference", dense_reference},
#ifdef TASD_HAVE_AVX2_KERNELS
    {"dense-avx2", parallel_kernel<dense_gemm_tile_avx2, MatrixF>},
#endif
};
constexpr std::size_t kScalarDense = 3;

constexpr NmEntry kNm[] = {
    {"row-parallel", parallel_kernel<nm_gemm_tile, sparse::NMSparseMatrix>},
    {"serial", serial_kernel<nm_gemm_tile, sparse::NMSparseMatrix>},
#ifdef TASD_HAVE_AVX2_KERNELS
    {"nm-avx2", parallel_kernel<nm_gemm_tile_avx2, sparse::NMSparseMatrix>},
#endif
};
constexpr std::size_t kScalarNm = 2;

/// The AVX2 rows join the table only when the executing CPU/OS can run
/// them (and the TASD_DISABLE_AVX2 escape hatch is unset).
template <class Entry, std::size_t N>
std::span<const Entry> runnable(const Entry (&all)[N], std::size_t scalar) {
  return {all, avx2_available() ? N : scalar};
}

/// The AVX2 row when present, the scalar default otherwise.
template <class Entry>
const Entry& best_of(std::span<const Entry> table, std::size_t scalar) {
  return table.size() > scalar ? table[scalar] : table.front();
}

template <class Entry>
const Entry& lookup(std::span<const Entry> table, std::string_view name,
                    std::string_view kind) {
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Entry& e) { return e.name == name; });
  TASD_CHECK_MSG(it != table.end(),
                 "unknown " << kind << " kernel '" << name << "'");
  return *it;
}

}  // namespace

std::span<const DenseEntry> dense_kernels() {
  static const std::span<const DenseEntry> table =
      runnable(kDense, kScalarDense);
  return table;
}

std::span<const NmEntry> nm_kernels() {
  static const std::span<const NmEntry> table = runnable(kNm, kScalarNm);
  return table;
}

const DenseEntry& best_dense() {
  return best_of(dense_kernels(), kScalarDense);
}

const NmEntry& best_nm() { return best_of(nm_kernels(), kScalarNm); }

const DenseEntry& lookup_dense(std::string_view name) {
  return lookup(dense_kernels(), name, "dense");
}

const NmEntry& lookup_nm(std::string_view name) {
  return lookup(nm_kernels(), name, "N:M");
}

ThreadPool& resolve_pool(const ExecPolicy& policy) {
  return policy.pool ? *policy.pool : default_pool();
}

DenseKernel resolve_dense(const ExecPolicy& policy) {
  return policy.dense_kernel ? policy.dense_kernel : kDense[0].fn;
}

NmKernel resolve_nm(const ExecPolicy& policy) {
  return policy.nm_kernel ? policy.nm_kernel : kNm[0].fn;
}

}  // namespace tasd::rt
