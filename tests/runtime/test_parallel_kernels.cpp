// Bit-exactness of the parallel execution layer: every GEMM kernel must
// produce *identical* bits at every thread count (deterministic row
// partitioning, no shared float accumulation), across odd shapes that
// stress the partition (m=1, non-multiple-of-tile N, ragged K).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "core/tasd_gemm.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/gemm_dispatch.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

struct Shape {
  Index m, k, n;
};

// m=1, tiny, prime dims, non-multiple-of-tile (kTileN=512) widths, and a
// k that is not a multiple of the 4-wide unroll or the N:M block size.
const Shape kShapes[] = {
    {1, 8, 8}, {1, 64, 517}, {3, 7, 5},  {16, 32, 8},
    {33, 30, 129}, {64, 100, 513}, {7, 128, 1024},
};

const std::size_t kThreadCounts[] = {0, 1, 2, 3, 5, 8};

TEST(ParallelKernels, DenseBitIdenticalAcrossThreadCounts) {
  // Every table dense kernel (scalar and SIMD alike) must match its
  // own 1-thread run bitwise at every thread count.
  for (const auto& [kernel, fn] : dense_kernels()) {
    for (const auto& s : kShapes) {
      Rng rng(100 + s.m + s.k + s.n);
      const MatrixF a = random_dense(s.m, s.k, Dist::kNormalStd1, rng);
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      ExecPolicy serial_policy;
      serial_policy.pool = &serial;
      serial_policy.dense_kernel = fn;
      const MatrixF reference = dense_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = fn;
        const MatrixF c = dense_gemm(a, b, policy);
        EXPECT_TRUE(c == reference) << kernel << " " << s.m << "x" << s.k
                                    << "x" << s.n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, NmBitIdenticalAcrossThreadCounts) {
  for (const auto& [kernel, fn] : nm_kernels()) {
    for (const auto& s : kShapes) {
      Rng rng(200 + s.m + s.k + s.n);
      const MatrixF dense =
          random_unstructured(s.m, s.k, 0.4, Dist::kNormalStd1, rng);
      const auto d = decompose(dense, TasdConfig::parse("2:4"));
      const sparse::NMSparseMatrix a = d.terms[0].compressed();
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      ExecPolicy serial_policy;
      serial_policy.pool = &serial;
      serial_policy.nm_kernel = fn;
      const MatrixF reference = nm_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = fn;
        EXPECT_TRUE(nm_gemm(a, b, policy) == reference)
            << kernel << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, TasdSeriesBitIdenticalAcrossThreadCounts) {
  for (const auto& [kernel, fn] : nm_kernels()) {
    for (const auto& s : kShapes) {
      Rng rng(300 + s.m + s.k + s.n);
      const MatrixF dense =
          random_unstructured(s.m, s.k, 0.3, Dist::kNormalStd1, rng);
      const auto plan = build_plan(dense, TasdConfig::parse("4:8+1:8"));
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      ExecPolicy serial_policy;
      serial_policy.pool = &serial;
      serial_policy.nm_kernel = fn;
      const MatrixF reference = series_gemm(plan, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = fn;
        EXPECT_TRUE(series_gemm(plan, b, policy) == reference)
            << kernel << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, CoreTasdGemmMatchesSerialTermMajorLoop) {
  // core/tasd_gemm routes through the shared parallel layer; its output
  // must stay bit-identical to the serial term-major accumulation it
  // replaced.
  Rng rng(505);
  const MatrixF a = random_unstructured(37, 48, 0.4, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(48, 19, Dist::kNormalStd1, rng);
  const auto d = decompose(a, TasdConfig::parse("4:8+1:8"));

  MatrixF expected(a.rows(), b.cols());
  for (const auto& term : d.terms)
    gemm_ref_accumulate(term.dense, b, expected);

  EXPECT_TRUE(tasd_gemm(d, b) == expected);
}

// ExecPolicy is what every run()/run_batch() copies: a pool pointer and
// two kernel pointers. Trivially copyable means no string, std::function
// or other owning member rides the execution path.
static_assert(std::is_trivially_copyable_v<ExecPolicy>);

/// The names of a kernel table, sorted.
template <class Entry>
std::vector<std::string> names_of(std::span<const Entry> table) {
  std::vector<std::string> names;
  for (const Entry& e : table) names.emplace_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(KernelTable, ListsBuiltinsAndDefaults) {
  // One table per operand kind: the scalar built-ins, plus the AVX2
  // kernel when runtime detection allows it, and nothing else. The
  // scalar default heads each table.
  std::vector<std::string> dense = {"reference", "tiled-parallel",
                                    "tiled-serial"};
  std::vector<std::string> nm = {"row-parallel", "serial"};
  if (avx2_available()) {
    dense.insert(dense.begin(), "dense-avx2");
    nm.insert(nm.begin(), "nm-avx2");
  }
  EXPECT_EQ(names_of(dense_kernels()), dense);
  EXPECT_EQ(names_of(nm_kernels()), nm);
  EXPECT_EQ(dense_kernels().front().name, "tiled-parallel");
  EXPECT_EQ(nm_kernels().front().name, "row-parallel");
}

TEST(KernelTable, SimdKernelsFollowRuntimeDetection) {
  // The AVX2 family is in the table exactly when the executing CPU/OS
  // can run it (and TASD_DISABLE_AVX2 is unset); best_*() walks the
  // avx2 > scalar chain over the table. The scalar CI leg exercises the
  // lower rung on capable hardware via the disable flag. (Table
  // membership itself is pinned by ListsBuiltinsAndDefaults.)
  if (avx2_available()) {
    EXPECT_EQ(best_dense().name, "dense-avx2");
    EXPECT_EQ(best_nm().name, "nm-avx2");
  } else {
    EXPECT_EQ(best_dense().name, "tiled-parallel");
    EXPECT_EQ(best_nm().name, "row-parallel");
  }
  EXPECT_EQ(lookup_dense(best_dense().name).fn, best_dense().fn);
  EXPECT_EQ(lookup_nm(best_nm().name).fn, best_nm().fn);
}

TEST(KernelTable, UnknownKernelThrows) {
  EXPECT_THROW(lookup_dense("no-such-kernel"), Error);
  EXPECT_THROW(lookup_nm("no-such-kernel"), Error);
}

TEST(KernelTable, AllDenseKernelsAgree) {
  Rng rng(707);
  const MatrixF a = random_dense(13, 29, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(29, 17, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(a, b);
  for (const auto& [name, fn] : dense_kernels()) {
    ExecPolicy policy;
    policy.dense_kernel = fn;
    EXPECT_TRUE(allclose(dense_gemm(a, b, policy), oracle, 1e-5, 1e-5))
        << "kernel " << name;
  }
}

}  // namespace
}  // namespace tasd::rt
