#include "runtime/gemm_dispatch.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <string_view>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "tensor/gemm_ref.hpp"

#ifdef TASD_HAVE_AVX2_KERNELS
#include "runtime/kernels_avx2.hpp"
#endif

namespace tasd::rt {

ThreadPool& resolve_pool(const ExecPolicy& policy) {
  return policy.pool ? *policy.pool : default_pool();
}

// ------------------------------------------------------------ tile cores

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

// ------------------------------------------------------------- registry

struct GemmDispatch::Impl {
  mutable Mutex mutex;
  // Transparent comparators: lookups by string_view copy no name.
  std::map<std::string, DenseKernel, std::less<>> dense TASD_GUARDED_BY(mutex);
  std::map<std::string, NmKernel, std::less<>> nm TASD_GUARDED_BY(mutex);
};

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

namespace {

// Row grain: below this many rows per chunk the fork/join overhead beats
// the win; partitioning stays deterministic either way.
constexpr std::size_t kRowGrain = 8;

// Column grain of the tile grid: wide enough that the shared A-element
// loads of one k-step amortize over the tile's columns, small enough
// that a short-m call still fans out over the pool.
constexpr Index kBatchColGrain = 128;

/// Run `tile(b, c, r0, r1, c0, c1)` over a deterministic (row-chunk,
/// column-chunk) grid covering rows x [0, b.cols()).
void run_tile_grid(ThreadPool& pool, Index rows, const MatrixF& b, MatrixF& c,
                   const PackedTileFn& tile) {
  const Index total_cols = b.cols();
  if (rows == 0 || total_cols == 0) return;
  const Index row_chunks = (rows + kRowGrain - 1) / kRowGrain;
  const Index col_chunks = (total_cols + kBatchColGrain - 1) / kBatchColGrain;
  pool.parallel_for(0, row_chunks * col_chunks, 1, [&](std::size_t t0,
                                                       std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const Index rc = t / col_chunks, cc = t % col_chunks;
      tile(b, c, rc * kRowGrain,
           std::min<Index>(rows, (rc + 1) * kRowGrain), cc * kBatchColGrain,
           std::min<Index>(total_cols, (cc + 1) * kBatchColGrain));
    }
  });
}

void dense_tiled_parallel(const MatrixF& a, std::span<const MatrixF> bs,
                          std::span<MatrixF> cs, ThreadPool& pool) {
  run_packed_batch(a.rows(), bs, cs, pool,
                   [&a](const MatrixF& b, MatrixF& c, Index r0, Index r1,
                        Index c0, Index c1) {
                     dense_gemm_tile(a, b, c, r0, r1, c0, c1);
                   });
}

void dense_tiled_serial(const MatrixF& a, std::span<const MatrixF> bs,
                        std::span<MatrixF> cs, ThreadPool& /*pool*/) {
  for (std::size_t i = 0; i < bs.size(); ++i)
    dense_gemm_tile(a, bs[i], cs[i], 0, a.rows(), 0, bs[i].cols());
}

void dense_reference(const MatrixF& a, std::span<const MatrixF> bs,
                     std::span<MatrixF> cs, ThreadPool& /*pool*/) {
  for (std::size_t i = 0; i < bs.size(); ++i)
    gemm_ref_accumulate(a, bs[i], cs[i]);
}

void nm_row_parallel(const sparse::NMSparseMatrix& a,
                     std::span<const MatrixF> bs, std::span<MatrixF> cs,
                     ThreadPool& pool) {
  run_packed_batch(a.rows(), bs, cs, pool,
                   [&a](const MatrixF& b, MatrixF& c, Index r0, Index r1,
                        Index c0, Index c1) {
                     nm_gemm_tile(a, b, c, r0, r1, c0, c1);
                   });
}

void nm_serial(const sparse::NMSparseMatrix& a, std::span<const MatrixF> bs,
               std::span<MatrixF> cs, ThreadPool& /*pool*/) {
  for (std::size_t i = 0; i < bs.size(); ++i)
    nm_gemm_tile(a, bs[i], cs[i], 0, a.rows(), 0, bs[i].cols());
}

}  // namespace

void run_packed_batch(Index rows, std::span<const MatrixF> bs,
                      std::span<MatrixF> cs, ThreadPool& pool,
                      const PackedTileFn& tile) {
  if (bs.size() == 1) {  // already one contiguous RHS: no pack/unpack
    run_tile_grid(pool, rows, bs[0], cs[0], tile);
    return;
  }
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp = pack_batch({cs.data(), cs.size()}, off);
  run_tile_grid(pool, rows, bp, cp, tile);
  unpack_batch(cp, off, cs);
}

// The scalar defaults: what "" names, and best_*() without AVX2.
constexpr std::string_view kDefaultDense = "tiled-parallel";
constexpr std::string_view kDefaultNm = "row-parallel";

GemmDispatch::GemmDispatch() : impl_(new Impl) {
  {
    // Scoped: register_avx2_kernels below re-enters through the public
    // registration methods, which take the lock themselves.
    MutexLock lock(impl_->mutex);
    impl_->dense[std::string(kDefaultDense)] = dense_tiled_parallel;
    impl_->dense["tiled-serial"] = dense_tiled_serial;
    impl_->dense["reference"] = dense_reference;
    impl_->nm[std::string(kDefaultNm)] = nm_row_parallel;
    impl_->nm["serial"] = nm_serial;
  }
#ifdef TASD_HAVE_AVX2_KERNELS
  // Runtime-gated SIMD backend: registered only when the executing
  // CPU/OS can run it (and the TASD_DISABLE_AVX2 escape hatch is unset).
  // Defaults stay scalar; best_*() prefers these names when present.
  if (avx2_available()) register_avx2_kernels(*this);
#endif
}

GemmDispatch& GemmDispatch::instance() {
  static GemmDispatch dispatch;
  return dispatch;
}

void GemmDispatch::register_dense(const std::string& name,
                                  DenseKernel kernel) {
  TASD_CHECK_MSG(!name.empty(), "kernel name must be non-empty");
  MutexLock lock(impl_->mutex);
  impl_->dense[name] = std::move(kernel);
}

void GemmDispatch::register_nm(const std::string& name, NmKernel kernel) {
  TASD_CHECK_MSG(!name.empty(), "kernel name must be non-empty");
  MutexLock lock(impl_->mutex);
  impl_->nm[name] = std::move(kernel);
}

std::vector<std::string> GemmDispatch::dense_kernels() const {
  MutexLock lock(impl_->mutex);
  std::vector<std::string> names;
  names.reserve(impl_->dense.size());
  for (const auto& [name, _] : impl_->dense) names.push_back(name);
  return names;
}

std::vector<std::string> GemmDispatch::nm_kernels() const {
  MutexLock lock(impl_->mutex);
  std::vector<std::string> names;
  names.reserve(impl_->nm.size());
  for (const auto& [name, _] : impl_->nm) names.push_back(name);
  return names;
}

// The static fallback chain: the AVX2 family when registered, the
// scalar default otherwise. Per-layer autotuning (runtime/autotune.hpp)
// refines this by measurement; these remain the kStatic binding and the
// tuning fallback on a host-signature mismatch.
std::string GemmDispatch::best_dense() const {
  MutexLock lock(impl_->mutex);
  return std::string(impl_->dense.contains("dense-avx2") ? "dense-avx2"
                                                          : kDefaultDense);
}

std::string GemmDispatch::best_nm() const {
  MutexLock lock(impl_->mutex);
  return std::string(impl_->nm.contains("nm-avx2") ? "nm-avx2" : kDefaultNm);
}

DenseKernel GemmDispatch::dense(const std::string& name) const {
  MutexLock lock(impl_->mutex);
  const auto it =
      impl_->dense.find(name.empty() ? kDefaultDense : std::string_view(name));
  TASD_CHECK_MSG(it != impl_->dense.end(),
                 "unknown dense kernel '" << name << "'");
  return it->second;
}

NmKernel GemmDispatch::nm(const std::string& name) const {
  MutexLock lock(impl_->mutex);
  const auto it =
      impl_->nm.find(name.empty() ? kDefaultNm : std::string_view(name));
  TASD_CHECK_MSG(it != impl_->nm.end(), "unknown N:M kernel '" << name << "'");
  return it->second;
}

}  // namespace tasd::rt
