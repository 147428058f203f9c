// Property sweep: the timed runtime kernels agree bit-for-bit in shape
// and numerically with the functional model across patterns/densities.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "kernel_families.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

struct KernelCase {
  const char* config;
  double density;
  Index m, k, n;
};

void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << c.config << " d=" << c.density << " " << c.m << "x" << c.k << "x"
      << c.n;
}

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, SeriesKernelMatchesFunctionalModel) {
  const auto p = GetParam();
  Rng rng(3000 + p.m + p.k);
  const MatrixF a =
      random_unstructured(p.m, p.k, p.density, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(p.k, p.n, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse(p.config);
  const auto d = decompose(a, cfg);
  const MatrixF kernel_out = series_gemm(build_plan(a, cfg), b);
  const MatrixF functional = gemm_ref(d.approximation(), b);
  EXPECT_TRUE(allclose(kernel_out, functional, 1e-4, 1e-4));
}

TEST_P(KernelEquivalence, DenseKernelMatchesReference) {
  const auto p = GetParam();
  Rng rng(4000 + p.m + p.k);
  const MatrixF a =
      random_unstructured(p.m, p.k, p.density, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(p.k, p.n, Dist::kNormalStd1, rng);
  EXPECT_TRUE(allclose(dense_gemm(a, b), gemm_ref(a, b), 1e-4, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelEquivalence,
    ::testing::Values(KernelCase{"2:4", 0.1, 16, 32, 8},
                      KernelCase{"2:4", 0.9, 16, 32, 8},
                      KernelCase{"1:8", 0.05, 32, 64, 4},
                      KernelCase{"4:8", 0.5, 8, 64, 16},
                      KernelCase{"4:8+1:8", 0.4, 16, 48, 8},
                      KernelCase{"2:8+1:8", 0.2, 8, 40, 12},
                      KernelCase{"2:4+2:8", 0.7, 16, 30, 5},  // ragged K
                      KernelCase{"1:4", 1.0, 4, 7, 3}));      // tiny ragged

// --- Table-wide property sweep: every kernel in the table (scalar and
// AVX2 families) × threads {0, 1, 2, 5, 8}. Each kernel must (a)
// agree with the tensor/gemm_ref oracle to float tolerance, (b) be
// bit-identical to its own 1-thread run, and (c) on a ragged batch mix
// be bit-identical to looping itself over single right-hand sides.

const std::size_t kSweepThreads[] = {0, 1, 2, 5, 8};

TEST(KernelRegistrySweep, EveryDenseKernelMatchesOracleAndItsSerialSelf) {
  Rng rng(6001);
  // Odd shape: m=1 row chunk, k not a multiple of the unroll, n crossing
  // the 32/8-lane vector blocks with a scalar remainder.
  const MatrixF a = random_dense(13, 30, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(30, 43, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(a, b);
  for (const auto& [kernel, fn] : dense_kernels()) {
    ExecPolicy serial_policy;
    serial_policy.dense_kernel = fn;
    ThreadPool one(1);
    serial_policy.pool = &one;
    const MatrixF reference = dense_gemm(a, b, serial_policy);
    EXPECT_TRUE(allclose(reference, oracle, 1e-4, 1e-4)) << kernel;
    for (std::size_t threads : kSweepThreads) {
      ThreadPool pool(threads);
      ExecPolicy policy;
      policy.pool = &pool;
      policy.dense_kernel = fn;
      EXPECT_TRUE(dense_gemm(a, b, policy) == reference)
          << kernel << " threads=" << threads;
    }
  }
}

TEST(KernelRegistrySweep, EveryNmKernelMatchesOracleAndItsSerialSelf) {
  Rng rng(6002);
  const MatrixF dense =
      random_unstructured(17, 40, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix a = d.terms[0].compressed();
  const MatrixF b = random_dense(40, 37, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(d.terms[0].dense, b);
  for (const auto& [kernel, fn] : nm_kernels()) {
    ExecPolicy serial_policy;
    serial_policy.nm_kernel = fn;
    ThreadPool one(1);
    serial_policy.pool = &one;
    const MatrixF reference = nm_gemm(a, b, serial_policy);
    EXPECT_TRUE(allclose(reference, oracle, 1e-4, 1e-4)) << kernel;
    for (std::size_t threads : kSweepThreads) {
      ThreadPool pool(threads);
      ExecPolicy policy;
      policy.pool = &pool;
      policy.nm_kernel = fn;
      EXPECT_TRUE(nm_gemm(a, b, policy) == reference)
          << kernel << " threads=" << threads;
    }
  }
}

TEST(KernelRegistrySweep, EveryKernelBatchedMatchesLoopedOnRaggedMixes) {
  Rng rng(6003);
  const MatrixF aw = random_dense(21, 36, Dist::kNormalStd1, rng);
  const MatrixF nm_dense =
      random_unstructured(21, 36, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(nm_dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix an = d.terms[0].compressed();
  // Ragged mixes: GEMV-style width-1 queries, a zero-column item, and
  // widths straddling the batch column grain.
  const std::vector<std::vector<Index>> mixes = {
      {1, 1, 1, 1}, {5, 0, 2, 9, 1}, {130, 3, 31}};
  for (const auto& widths : mixes) {
    std::vector<MatrixF> bs;
    for (Index w : widths)
      bs.push_back(random_dense(36, w, Dist::kNormalStd1, rng));
    for (const auto& [kernel, fn] : dense_kernels()) {
      ExecPolicy single;
      single.dense_kernel = fn;
      std::vector<MatrixF> want;
      for (const auto& b : bs) want.push_back(dense_gemm(aw, b, single));
      for (std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = fn;
        const auto cs = dense_gemm_batch(aw, bs, policy);
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == want[i])
              << kernel << " threads=" << threads << " item=" << i;
      }
    }
    for (const auto& [kernel, fn] : nm_kernels()) {
      ExecPolicy single;
      single.nm_kernel = fn;
      std::vector<MatrixF> want;
      for (const auto& b : bs) want.push_back(nm_gemm(an, b, single));
      for (std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        const auto cs = testing::call_kernel(fn, an, bs, pool);
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == want[i])
              << kernel << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(KernelEdgeCases, OneByOne) {
  MatrixF a(1, 1, {3.0F});
  MatrixF b(1, 1, {4.0F});
  EXPECT_EQ(dense_gemm(a, b)(0, 0), 12.0F);
  const auto plan = build_plan(a, TasdConfig::parse("1:4"));
  EXPECT_EQ(series_gemm(plan, b)(0, 0), 12.0F);
}

TEST(KernelEdgeCases, EmptyOutputColumns) {
  Rng rng(5000);
  const MatrixF a = random_dense(4, 8, Dist::kNormalStd1, rng);
  const MatrixF b(8, 0);
  const MatrixF c = dense_gemm(a, b);
  EXPECT_EQ(c.cols(), 0u);
}

}  // namespace
}  // namespace tasd::rt
