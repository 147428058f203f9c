// GemmDispatch: the kernel registry every GEMM path routes through.
//
// All dense and N:M-compressed CPU kernels register here by name; callers
// pick one through an ExecPolicy (or take the default). This is the seam
// future backends (sharded, SIMD-specialized) plug into without touching
// call sites, and what lets the benches sweep kernels and thread counts
// uniformly.
//
// There is one slot per operand kind (dense, N:M) and one kernel
// signature per slot, batch-shaped: a kernel accumulates cs[i] += A *
// bs[i] over a span of right-hand sides, and a single right-hand side is
// a one-item span (run_packed_batch skips packing for it).
//
// Built-in dense kernels:
//   "tiled-parallel"  (row, column) tile grid over the pool, 4-wide
//                     k-unrolled (default)
//   "tiled-serial"    the same tile core, one thread, item by item
//   "reference"       the tensor/gemm_ref correctness oracle, per item
// Built-in N:M kernels:
//   "row-parallel"    (row, column) tile grid over the compressed
//                     traversal (default)
//   "serial"          the same traversal, one thread, item by item
// AVX2/FMA kernels (registered only when tasd::avx2_available() — CPUID
// says AVX2+FMA, the OS saves YMM state, TASD_DISABLE_AVX2 unset; see
// runtime/kernels_avx2.hpp and docs/kernels.md):
//   "dense-avx2"      "nm-avx2"
//
// Every kernel partitions work by output row and column with no shared
// float accumulation, and each output element's MAC order is independent
// of the partition, of its column position and of batch packing. So all
// of them produce bit-identical results at every thread count, and a
// batched call is bit-identical to looping the same kernel over the
// items. The scalar (mul+add) and AVX2 (one fused multiply-add per step)
// families round differently and agree to float tolerance, not bitwise.
// best_dense() / best_nm() name the statically-preferred registered
// kernel of each slot (avx2 > scalar) so callers can auto-select per
// artifact (CompileOptions "auto"); per-layer autotuning
// (runtime/autotune.hpp) refines that choice by measurement.
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
};

/// Resolve the pool an ExecPolicy designates.
ThreadPool& resolve_pool(const ExecPolicy& policy);

/// A dense kernel accumulates cs[i] += A * bs[i] for every item of a
/// batch of right-hand sides (items may have ragged widths; one item is
/// the single-RHS case). The contract every registered kernel must keep:
/// output bits identical to looping it over one-item batches, at every
/// thread count.
using DenseKernel =
    std::function<void(const MatrixF& a, std::span<const MatrixF> bs,
                       std::span<MatrixF> cs, ThreadPool& pool)>;

/// An N:M kernel accumulates cs[i] += A * bs[i] for compressed A, under
/// the same bit-exactness contract.
using NmKernel =
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

  /// Registered kernel names, sorted.
  [[nodiscard]] std::vector<std::string> dense_kernels() const;
  [[nodiscard]] std::vector<std::string> nm_kernels() const;

  /// Auto-selection policy: the fastest registered kernel for each slot —
  /// the AVX2 kernel when runtime detection registered it, the scalar
  /// default ("tiled-parallel" / "row-parallel") otherwise.
  /// CompileOptions' "auto" kernel names resolve through these at
  /// rt::compile() time.
  [[nodiscard]] std::string best_dense() const;
  [[nodiscard]] std::string best_nm() const;

  /// Look up a kernel ("" = the scalar default). Throws tasd::Error on
  /// unknown names.
  [[nodiscard]] DenseKernel dense(const std::string& name = {}) const;
  [[nodiscard]] NmKernel nm(const std::string& name = {}) const;

 private:
  GemmDispatch();
  struct Impl;
  Impl* impl_;
};

// ------------------------------------------------------ tile cores
// The serial units the kernels partition over; exposed so composite
// kernels and tests can drive exact output tiles.

/// Dense C += A*B restricted to output rows [row_begin, row_end) and
/// output columns [col_begin, col_end): j-tiled, 4-wide k-unrolled,
/// every MAC executed (no zero skip). Per-element MAC order (k
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
// the kernels as a single-item batch, and unpack once.

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

/// Shared scheduling body of the parallel kernels: single-item batches
/// run the (row, column) tile grid in place; larger batches pack B and C
/// once, run the grid over the packed pair, and unpack. Exposed so SIMD
/// backends reuse the exact grid — any tile core whose per-element MAC
/// order is independent of the column range keeps the batched-equals-
/// looped bit-exactness contract through this body.
void run_packed_batch(Index rows, std::span<const MatrixF> bs,
                      std::span<MatrixF> cs, ThreadPool& pool,
                      const PackedTileFn& tile);

}  // namespace tasd::rt
