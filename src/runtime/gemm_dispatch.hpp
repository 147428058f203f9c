// GemmDispatch: the kernel registry every GEMM path routes through.
//
// All dense and N:M-compressed CPU kernels register here by name; callers
// pick one through an ExecPolicy (or take the default). This is the seam
// future backends (batched, sharded, SIMD-specialized) plug into without
// touching call sites, and what lets the benches sweep kernels and thread
// counts uniformly.
//
// Built-in dense kernels:
//   "tiled-parallel"  row-parallel, j-tiled, 4-wide k-unrolled (default)
//   "tiled-serial"    the same arithmetic on one thread
//   "reference"       the tensor/gemm_ref correctness oracle
// Built-in N:M kernels:
//   "row-parallel"    row-parallel compressed traversal (default)
//   "serial"          the same arithmetic on one thread
// Built-in batch kernels (dense and N:M, serving path):
//   "batch-packed"    pack the batch into one wide RHS and partition
//                     (output-row, batch-column) tiles over the pool
//                     (default)
//   "batch-loop"      per-item serial loop of the single-RHS core
// AVX2/FMA kernels (registered only when tasd::avx2_available() — CPUID
// says AVX2+FMA, the OS saves YMM state, TASD_DISABLE_AVX2 unset; see
// runtime/kernels_avx2.hpp and docs/kernels.md):
//   "dense-avx2"        "nm-avx2"
//   "dense-batch-avx2"  "nm-batch-avx2"
//
// Every kernel partitions work by output row (batch kernels also by
// batch column) with no shared float accumulation, so all of them
// produce bit-identical results at every thread count. Batch kernels
// additionally preserve each output element's MAC order exactly as the
// single-RHS kernels of the same family execute it, so a batched call is
// bit-identical to looping that single-RHS kernel over the batch. The
// scalar (mul+add) and AVX2 (one fused multiply-add per step) families
// round differently and agree to float tolerance, not bitwise.
// best_dense() / best_nm() / best_*_batch() name the statically-preferred
// registered kernel of each slot (avx2 > scalar) so callers can
// auto-select per artifact (CompileOptions "auto"); per-layer
// autotuning (runtime/autotune.hpp) refines that choice by measurement.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// How a GEMM call should execute: which pool and which kernels. The
/// defaults (null pool, empty names) mean "the process default pool and
/// the registry's default kernels".
struct ExecPolicy {
  ThreadPool* pool = nullptr;
  std::string dense_kernel;
  std::string nm_kernel;
  std::string dense_batch_kernel;
  std::string nm_batch_kernel;
};

/// Resolve the pool an ExecPolicy designates.
ThreadPool& resolve_pool(const ExecPolicy& policy);

/// A dense kernel accumulates C += A * B using the given pool.
using DenseKernel = std::function<void(const MatrixF& a, const MatrixF& b,
                                       MatrixF& c, ThreadPool& pool)>;

/// An N:M kernel accumulates C += A * B for a compressed A.
using NmKernel =
    std::function<void(const sparse::NMSparseMatrix& a, const MatrixF& b,
                       MatrixF& c, ThreadPool& pool)>;

/// A batched dense kernel accumulates cs[i] += A * bs[i] for every item
/// of a batch of right-hand sides (items may have ragged widths). The
/// contract every registered kernel must keep: output bits identical to
/// looping the single-RHS kernel over the items, at every thread count.
using DenseBatchKernel =
    std::function<void(const MatrixF& a, std::span<const MatrixF> bs,
                       std::span<MatrixF> cs, ThreadPool& pool)>;

/// A batched N:M kernel accumulates cs[i] += A * bs[i] for compressed A,
/// under the same bit-exactness contract.
using NmBatchKernel =
    std::function<void(const sparse::NMSparseMatrix& a,
                       std::span<const MatrixF> bs, std::span<MatrixF> cs,
                       ThreadPool& pool)>;

/// Thread-safe named registry of GEMM kernels.
class GemmDispatch {
 public:
  /// Process-wide registry, pre-populated with the built-ins.
  static GemmDispatch& instance();

  void register_dense(const std::string& name, DenseKernel kernel);
  void register_nm(const std::string& name, NmKernel kernel);
  void register_dense_batch(const std::string& name, DenseBatchKernel kernel);
  void register_nm_batch(const std::string& name, NmBatchKernel kernel);
  void set_default_dense(const std::string& name);
  void set_default_nm(const std::string& name);
  void set_default_dense_batch(const std::string& name);
  void set_default_nm_batch(const std::string& name);

  /// Registered kernel names, sorted.
  [[nodiscard]] std::vector<std::string> dense_kernels() const;
  [[nodiscard]] std::vector<std::string> nm_kernels() const;
  [[nodiscard]] std::vector<std::string> dense_batch_kernels() const;
  [[nodiscard]] std::vector<std::string> nm_batch_kernels() const;
  [[nodiscard]] std::string default_dense() const;
  [[nodiscard]] std::string default_nm() const;
  [[nodiscard]] std::string default_dense_batch() const;
  [[nodiscard]] std::string default_nm_batch() const;

  /// Auto-selection policy: the fastest registered kernel for each slot —
  /// the AVX2 kernel when runtime detection registered it, the (scalar)
  /// registry default otherwise. CompileOptions' "auto" kernel names
  /// resolve through these at rt::compile() time.
  [[nodiscard]] std::string best_dense() const;
  [[nodiscard]] std::string best_nm() const;
  [[nodiscard]] std::string best_dense_batch() const;
  [[nodiscard]] std::string best_nm_batch() const;

  /// Look up a kernel ("" = the default). Throws tasd::Error on unknown
  /// names.
  [[nodiscard]] DenseKernel dense(const std::string& name = {}) const;
  [[nodiscard]] NmKernel nm(const std::string& name = {}) const;
  [[nodiscard]] DenseBatchKernel dense_batch(const std::string& name = {}) const;
  [[nodiscard]] NmBatchKernel nm_batch(const std::string& name = {}) const;

 private:
  GemmDispatch();
  struct Impl;
  Impl* impl_;
};

// ------------------------------------------------------ row-range cores
// The serial units the kernels partition over; exposed so composite
// kernels (TASD series) and tests can drive exact row ranges.

/// Dense C += A*B restricted to output rows [row_begin, row_end):
/// j-tiled, 4-wide k-unrolled, every MAC executed (no zero skip).
void dense_gemm_rows(const MatrixF& a, const MatrixF& b, MatrixF& c,
                     Index row_begin, Index row_end);

/// Compressed N:M C += A*B restricted to output rows [row_begin,
/// row_end).
void nm_gemm_rows(const sparse::NMSparseMatrix& a, const MatrixF& b,
                  MatrixF& c, Index row_begin, Index row_end);

/// Dense C += A*B restricted to output rows [row_begin, row_end) and
/// output columns [col_begin, col_end). Per-element MAC order (k
/// ascending, 4-wide) is the same for every tile shape, so any disjoint
/// tiling of the output reproduces the full-range result bit-for-bit.
void dense_gemm_tile(const MatrixF& a, const MatrixF& b, MatrixF& c,
                     Index row_begin, Index row_end, Index col_begin,
                     Index col_end);

/// Compressed N:M C += A*B restricted to an (output-row, output-column)
/// tile, same bit-exactness property as dense_gemm_tile.
void nm_gemm_tile(const sparse::NMSparseMatrix& a, const MatrixF& b,
                  MatrixF& c, Index row_begin, Index row_end,
                  Index col_begin, Index col_end);

// Packed batch layout: items' columns laid side by side in one wide
// matrix, packed(r, off[i] + j) == item_i(r, j). Pack/unpack are exact
// copies, so callers that run many kernels over the same batch (e.g. a
// TASD series' term loop) can pack once, pass the packed pair through
// the batch kernels as a single-item batch, and unpack once.

/// Prefix sums of item widths; off.back() is the packed column count.
std::vector<Index> batch_offsets(std::span<const MatrixF> items);

/// Copy items (all with equal row counts) into one packed wide matrix.
MatrixF pack_batch(std::span<const MatrixF> items,
                   const std::vector<Index>& off);

/// Copy packed columns back out into the per-item matrices.
void unpack_batch(const MatrixF& packed, const std::vector<Index>& off,
                  std::span<MatrixF> items);

/// A packed-batch tile body: C += A*B restricted to output rows
/// [r0, r1) and output columns [c0, c1) of the packed pair.
using PackedTileFn = std::function<void(const MatrixF& b, MatrixF& c,
                                        Index r0, Index r1, Index c0,
                                        Index c1)>;

/// Shared scheduling body of the packed batch kernels: single-item
/// batches run the (row, batch-column) tile grid in place; larger
/// batches pack B and C once, run the grid over the packed pair, and
/// unpack. Exposed so SIMD backends reuse the exact grid — any tile core
/// whose per-element MAC order is independent of the column range keeps
/// the batched-equals-looped bit-exactness contract through this body.
void run_packed_batch(Index rows, std::span<const MatrixF> bs,
                      std::span<MatrixF> cs, ThreadPool& pool,
                      const PackedTileFn& tile);

}  // namespace tasd::rt
