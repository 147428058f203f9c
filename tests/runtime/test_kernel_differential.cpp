// Differential property sweep: one seeded random-shape generator drives
// every kernel family in the kernel table — scalar, AVX2, and whatever a
// future backend adds — through the same draws and asserts the
// cross-kernel contract from docs/kernels.md:
//
//  * within a rounding family results are bit-identical (kernel vs
//    kernel, batched vs looped, any thread count vs one thread);
//  * across families results agree with the scalar gemm_ref oracle to
//    1e-4 float tolerance.
//
// Shapes are drawn, not hand-picked: ragged M/K/N around the vector
// blocking grains (1..64 rows, K crossing the 4-step unroll, N crossing
// the 8/16/32-lane blocks plus masked tails), ragged batch width mixes
// including zero-column items, and mixed-pattern TASD series (2:8+1:8).
// A new backend only has to add its kernels to the table and name them
// into a family (kernel_families.hpp) to inherit the whole sweep.
//
// One fixed draw is wide: a single right-hand side of more than 512
// columns, so the parallel kernels split it over several 128-column
// chunks of their tile grid while the serial kernels cross the
// 512-column macro tile in one call.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/parallel.hpp"
#include "core/decompose.hpp"
#include "kernel_families.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

using testing::rounding_family;

constexpr std::size_t kDraws = 6;
constexpr std::size_t kSweepThreads[] = {0, 1, 2, 5, 8};

struct Draw {
  Index m, k, n;
  std::vector<Index> widths;  // ragged batch mix (may contain 0)
  std::string label;
};

// The generator: shapes land on and around the kernels' blocking grains
// (AVX2 handles 32/16/8-col blocks with a masked tail, scalar tiles
// 512) — uniform draws over [1, 64]x[8, 160]x[1, 48] cross every
// remainder path within a few draws. K is rounded to a multiple
// of 8 so the same draw can also feed the N:M cases (patterns over M=4
// and M=8 groups); raggedness everywhere else is the point. The last
// draw is fixed and wide (see the file comment), small in M and K so it
// stays cheap.
std::vector<Draw> make_draws(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Draw> draws;
  for (std::size_t i = 0; i < kDraws; ++i) {
    Draw d;
    d.m = static_cast<Index>(rng.uniform_int(1, 64));
    d.k = static_cast<Index>(rng.uniform_int(1, 20)) * 8;
    d.n = static_cast<Index>(rng.uniform_int(1, 48));
    const std::size_t items = static_cast<std::size_t>(rng.uniform_int(2, 5));
    for (std::size_t q = 0; q < items; ++q)
      d.widths.push_back(static_cast<Index>(rng.uniform_int(0, 33)));
    d.label = std::to_string(d.m) + "x" + std::to_string(d.k) + "x" +
              std::to_string(d.n) + " draw=" + std::to_string(i);
    draws.push_back(std::move(d));
  }
  draws.push_back({9, 24, 523, {0, 130, 3}, "9x24x523 wide"});
  return draws;
}

/// Assert `out` equals the family's canonical result bitwise (recording
/// it on first sight) and the oracle to float tolerance.
void check_family(std::map<std::string, MatrixF>& canon,
                  std::string_view kernel, const MatrixF& out,
                  const MatrixF& oracle, const std::string& ctx) {
  EXPECT_TRUE(allclose(out, oracle, 1e-4, 1e-4)) << ctx << " kernel=" << kernel;
  const std::string family = rounding_family(kernel);
  const auto [it, fresh] = canon.emplace(family, out);
  if (!fresh) {
    EXPECT_TRUE(out == it->second)
        << ctx << " kernel=" << kernel << " diverges within family " << family;
  }
}

TEST(KernelDifferential, DenseKernelsAgreeAcrossFamiliesOnRandomShapes) {
  for (const Draw& d : make_draws(7101)) {
    Rng rng(7102);
    const MatrixF a = random_dense(d.m, d.k, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const MatrixF oracle = gemm_ref(a, b);
    std::map<std::string, MatrixF> canon;
    for (const auto& [kernel, fn] : dense_kernels()) {
      ExecPolicy one_policy;
      one_policy.dense_kernel = fn;
      ThreadPool one(1);
      one_policy.pool = &one;
      const MatrixF serial = dense_gemm(a, b, one_policy);
      check_family(canon, kernel, serial, oracle, d.label);
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = fn;
        EXPECT_TRUE(dense_gemm(a, b, policy) == serial)
            << d.label << " kernel=" << kernel << " threads=" << threads;
      }
    }
  }
}

TEST(KernelDifferential, NmKernelsAgreeAcrossFamiliesOnRandomShapes) {
  // Alternate the N:M pattern per draw so both the M=4 and M=8 group
  // decoders hit the random shapes.
  std::size_t i = 0;
  for (const Draw& d : make_draws(7201)) {
    Rng rng(7202);
    const bool wide = (i++ % 2) == 0;
    const MatrixF dense = random_nm_structured(d.m, d.k, wide ? 2 : 1,
                                               wide ? 4 : 8, Dist::kNormalStd1,
                                               rng);
    const sparse::NMSparseMatrix a(dense,
                                   sparse::NMPattern(wide ? 2 : 1, wide ? 4 : 8));
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const MatrixF oracle = gemm_ref(dense, b);
    std::map<std::string, MatrixF> canon;
    for (const auto& [kernel, fn] : nm_kernels()) {
      ExecPolicy one_policy;
      one_policy.nm_kernel = fn;
      ThreadPool one(1);
      one_policy.pool = &one;
      const MatrixF serial = nm_gemm(a, b, one_policy);
      check_family(canon, kernel, serial, oracle, d.label);
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = fn;
        EXPECT_TRUE(nm_gemm(a, b, policy) == serial)
            << d.label << " kernel=" << kernel << " threads=" << threads;
      }
    }
  }
}

TEST(KernelDifferential, BatchKernelsMatchLoopedSinglesOnRaggedMixes) {
  for (const Draw& d : make_draws(7301)) {
    Rng rng(7303);
    const MatrixF aw = random_dense(d.m, d.k, Dist::kNormalStd1, rng);
    const MatrixF nm_dense =
        random_nm_structured(d.m, d.k, 2, 4, Dist::kNormalStd1, rng);
    const sparse::NMSparseMatrix an(nm_dense, sparse::NMPattern(2, 4));
    std::vector<MatrixF> bs;
    for (const Index w : d.widths)
      bs.push_back(random_dense(d.k, w, Dist::kNormalStd1, rng));

    for (const auto& [kernel, fn] : dense_kernels()) {
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = fn;
        const auto batch = dense_gemm_batch(aw, bs, policy);
        ASSERT_EQ(batch.size(), bs.size());
        for (std::size_t q = 0; q < bs.size(); ++q)
          EXPECT_TRUE(batch[q] == dense_gemm(aw, bs[q], policy))
              << d.label << " kernel=" << kernel << " threads=" << threads
              << " item=" << q;
      }
    }
    for (const auto& [kernel, fn] : nm_kernels()) {
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = fn;
        const auto batch = testing::call_kernel(fn, an, bs, pool);
        ASSERT_EQ(batch.size(), bs.size());
        for (std::size_t q = 0; q < bs.size(); ++q)
          EXPECT_TRUE(batch[q] == nm_gemm(an, bs[q], policy))
              << d.label << " kernel=" << kernel << " threads=" << threads
              << " item=" << q;
      }
    }
  }
}

TEST(KernelDifferential, MixedPatternSeriesAgreesAcrossFamilies) {
  // The full TASD pipeline (mixed 2:8+1:8 decomposition, two series
  // terms) under each table nm kernel: families agree bitwise
  // internally and with the functional model to tolerance.
  for (const Draw& d : make_draws(7401)) {
    Rng rng(7402);
    const MatrixF a =
        random_unstructured(d.m, d.k, 0.3, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const auto cfg = TasdConfig::parse("2:8+1:8");
    const auto dec = decompose(a, cfg);
    const auto plan = build_plan(a, cfg);
    const MatrixF functional = gemm_ref(dec.approximation(), b);
    std::map<std::string, MatrixF> canon;
    for (const auto& [kernel, fn] : nm_kernels()) {
      ExecPolicy policy;
      policy.nm_kernel = fn;
      check_family(canon, kernel, series_gemm(plan, b, policy), functional,
                   d.label);
    }
  }
}

}  // namespace
}  // namespace tasd::rt
