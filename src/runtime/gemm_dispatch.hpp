// The kernel table every GEMM path executes from.
//
// Kernels are plain function pointers in a fixed table, one table per
// operand kind (dense, N:M). A caller resolves a name once, at the edge
// (CompileOptions, the benches, the kernel tests), and from then on
// carries the pointer in an ExecPolicy: no execution path looks a
// kernel up, takes a lock or touches a string.
//
// One kernel signature per operand kind, batch-shaped: a kernel
// accumulates cs[i] += A * bs[i] over a span of right-hand sides, and a
// single right-hand side is a one-item span (the parallel kernels skip
// packing for it).
//
// Scalar dense kernels:
//   "tiled-parallel"  (row, column) tile grid over the pool, 4-wide
//                     k-unrolled (the default)
//   "tiled-serial"    the same tile core, one thread, item by item
//   "reference"       the tensor/gemm_ref correctness oracle, per item
// Scalar N:M kernels:
//   "row-parallel"    (row, column) tile grid over the compressed
//                     traversal (the default)
//   "serial"          the same traversal, one thread, item by item
// AVX2/FMA kernels (in the table only when tasd::avx2_available(): CPUID
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
// best_dense() / best_nm() are the statically-preferred entry of each
// table (avx2 > scalar): what CompileOptions "auto" binds, once per
// compiled network.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// A dense kernel accumulates cs[i] += A * bs[i] for every item of a
/// batch of right-hand sides (items may have ragged widths; one item is
/// the single-RHS case). The contract every table kernel keeps: output
/// bits identical to looping it over one-item batches, at every thread
/// count. Callers check shapes; kernels do not.
using DenseKernel = void (*)(const MatrixF& a, std::span<const MatrixF> bs,
                             std::span<MatrixF> cs, ThreadPool& pool);

/// An N:M kernel accumulates cs[i] += A * bs[i] for compressed A, under
/// the same bit-exactness contract.
using NmKernel = void (*)(const sparse::NMSparseMatrix& a,
                          std::span<const MatrixF> bs, std::span<MatrixF> cs,
                          ThreadPool& pool);

/// How a GEMM call should execute: which pool and which kernels. Null
/// members mean "the process default pool" and "the scalar default
/// kernel" ("tiled-parallel" / "row-parallel").
struct ExecPolicy {
  ThreadPool* pool = nullptr;
  DenseKernel dense_kernel = nullptr;
  NmKernel nm_kernel = nullptr;
};

/// Resolve the pool and kernels an ExecPolicy designates.
ThreadPool& resolve_pool(const ExecPolicy& policy);
DenseKernel resolve_dense(const ExecPolicy& policy);
NmKernel resolve_nm(const ExecPolicy& policy);

/// One table row: a kernel and the name reports and options use for it.
template <class Kernel>
struct KernelEntry {
  std::string_view name;
  Kernel fn;
};
using DenseEntry = KernelEntry<DenseKernel>;
using NmEntry = KernelEntry<NmKernel>;

/// The kernels this process can run, scalar default first.
std::span<const DenseEntry> dense_kernels();
std::span<const NmEntry> nm_kernels();

/// The fastest entry of each table: the AVX2 kernel when it is in the
/// table, the scalar default otherwise. CompileOptions' "auto" kernel
/// names resolve through these at rt::compile() time.
const DenseEntry& best_dense();
const NmEntry& best_nm();

/// The entry named `name`. Throws tasd::Error on unknown names.
const DenseEntry& lookup_dense(std::string_view name);
const NmEntry& lookup_nm(std::string_view name);

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

}  // namespace tasd::rt
