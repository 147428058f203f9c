// Bit-exactness of the parallel execution layer: every GEMM kernel must
// produce *identical* bits at every thread count (deterministic row
// partitioning, no shared float accumulation), across odd shapes that
// stress the partition (m=1, non-multiple-of-tile N, ragged K).
#include <gtest/gtest.h>


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
  // Every registered dense kernel (scalar and SIMD alike) must match its
  // own 1-thread run bitwise at every thread count.
  for (const std::string& kernel : GemmDispatch::instance().dense_kernels()) {
    for (const auto& s : kShapes) {
      Rng rng(100 + s.m + s.k + s.n);
      const MatrixF a = random_dense(s.m, s.k, Dist::kNormalStd1, rng);
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      ExecPolicy serial_policy;
      serial_policy.pool = &serial;
      serial_policy.dense_kernel = kernel;
      const MatrixF reference = dense_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = kernel;
        const MatrixF c = dense_gemm(a, b, policy);
        EXPECT_TRUE(c == reference) << kernel << " " << s.m << "x" << s.k
                                    << "x" << s.n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, NmBitIdenticalAcrossThreadCounts) {
  for (const std::string& kernel : GemmDispatch::instance().nm_kernels()) {
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
      serial_policy.nm_kernel = kernel;
      const MatrixF reference = nm_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = kernel;
        EXPECT_TRUE(nm_gemm(a, b, policy) == reference)
            << kernel << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, TasdSeriesBitIdenticalAcrossThreadCounts) {
  for (const std::string& kernel : GemmDispatch::instance().nm_kernels()) {
    for (const auto& s : kShapes) {
      Rng rng(300 + s.m + s.k + s.n);
      const MatrixF dense =
          random_unstructured(s.m, s.k, 0.3, Dist::kNormalStd1, rng);
      const TasdSeriesGemm series(
          decompose(dense, TasdConfig::parse("4:8+1:8")));
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      ExecPolicy serial_policy;
      serial_policy.pool = &serial;
      serial_policy.nm_kernel = kernel;
      const MatrixF reference = series.multiply(b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = kernel;
        EXPECT_TRUE(series.multiply(b, policy) == reference)
            << kernel << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, SeriesFromPlanMatchesSeriesFromDecomposition) {
  Rng rng(404);
  const MatrixF dense =
      random_unstructured(33, 40, 0.5, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const MatrixF b = random_dense(40, 21, Dist::kNormalStd1, rng);
  const TasdSeriesGemm from_decomp(decompose(dense, cfg));
  const TasdSeriesGemm from_plan(plan_cache().get_or_build(dense, cfg));
  EXPECT_EQ(from_decomp.nnz(), from_plan.nnz());
  EXPECT_EQ(from_decomp.term_count(), from_plan.term_count());
  EXPECT_TRUE(from_decomp.multiply(b) == from_plan.multiply(b));
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

TEST(GemmDispatchRegistry, ListsBuiltinsAndDefaults) {
  // One slot per operand kind: the scalar built-ins, plus the AVX2
  // kernel when runtime detection registered it, and nothing else
  // (names other tests register start with "test-").
  auto& dispatch = GemmDispatch::instance();
  const auto builtins = [](std::vector<std::string> names) {
    std::erase_if(names,
                  [](const std::string& n) { return n.starts_with("test-"); });
    return names;
  };
  std::vector<std::string> dense = {"reference", "tiled-parallel",
                                    "tiled-serial"};
  std::vector<std::string> nm = {"row-parallel", "serial"};
  if (avx2_available()) {
    dense.insert(dense.begin(), "dense-avx2");
    nm.insert(nm.begin(), "nm-avx2");
  }
  EXPECT_EQ(builtins(dispatch.dense_kernels()), dense);
  EXPECT_EQ(builtins(dispatch.nm_kernels()), nm);
}

TEST(GemmDispatchRegistry, SimdKernelsFollowRuntimeDetection) {
  // The AVX2 family is registered exactly when the executing CPU/OS can
  // run it (and TASD_DISABLE_AVX2 is unset); best_*() walks the
  // avx2 > scalar chain over whatever registered. The scalar CI leg
  // exercises the lower rung on capable hardware via the disable flag.
  // (Registration itself is pinned by ListsBuiltinsAndDefaults.)
  auto& dispatch = GemmDispatch::instance();
  if (avx2_available()) {
    EXPECT_EQ(dispatch.best_dense(), "dense-avx2");
    EXPECT_EQ(dispatch.best_nm(), "nm-avx2");
  } else {
    EXPECT_EQ(dispatch.best_dense(), "tiled-parallel");
    EXPECT_EQ(dispatch.best_nm(), "row-parallel");
  }
}

TEST(GemmDispatchRegistry, UnknownKernelThrows) {
  EXPECT_THROW(GemmDispatch::instance().dense("no-such-kernel"), Error);
  EXPECT_THROW(GemmDispatch::instance().nm("no-such-kernel"), Error);
  Rng rng(606);
  const MatrixF a = random_dense(4, 4, Dist::kNormalStd1, rng);
  ExecPolicy policy;
  policy.dense_kernel = "no-such-kernel";
  EXPECT_THROW(dense_gemm(a, a, policy), Error);
  const std::vector<MatrixF> bs(2, a);
  EXPECT_THROW(dense_gemm_batch(a, bs, policy), Error);
}

TEST(GemmDispatchRegistry, AllDenseKernelsAgree) {
  Rng rng(707);
  const MatrixF a = random_dense(13, 29, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(29, 17, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(a, b);
  for (const auto& name : GemmDispatch::instance().dense_kernels()) {
    ExecPolicy policy;
    policy.dense_kernel = name;
    EXPECT_TRUE(allclose(dense_gemm(a, b, policy), oracle, 1e-5, 1e-5))
        << "kernel " << name;
  }
}

TEST(GemmDispatchRegistry, RegisteredKernelIsDispatchable) {
  auto& dispatch = GemmDispatch::instance();
  dispatch.register_dense("test-zero",
                          [](const MatrixF&, std::span<const MatrixF>,
                             std::span<MatrixF> cs, ThreadPool&) {
                            for (MatrixF& c : cs)
                              for (float& v : c.flat()) v = -1.0F;
                          });
  Rng rng(808);
  const MatrixF a = random_dense(3, 3, Dist::kNormalStd1, rng);
  ExecPolicy policy;
  policy.dense_kernel = "test-zero";
  const MatrixF c = dense_gemm(a, a, policy);
  for (float v : c.flat()) EXPECT_EQ(v, -1.0F);
  // The default is untouched by registering a named kernel.
  EXPECT_TRUE(allclose(dense_gemm(a, a), gemm_ref(a, a), 1e-5, 1e-5));
}

}  // namespace
}  // namespace tasd::rt
