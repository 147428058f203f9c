// Bit-exactness of the batched serving path: dense_gemm_batch, the N:M
// table kernels called on a batch, and series_gemm_batch
// must produce outputs `==` to looping the same kernel over single
// right-hand sides, at every thread count, for every table kernel, across
// ragged batch sizes and ragged per-item widths.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "kernel_families.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/gemm_dispatch.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

const std::size_t kThreadCounts[] = {0, 1, 2, 5, 8};

// Ragged batches: singleton, GEMV-style uniform width 1, ragged widths
// (including a zero-column item), a batch whose every item has zero
// columns, and a batch larger than the tile grid's column grain would
// fill at width 1.
std::vector<std::vector<Index>> batch_shapes() {
  return {
      {5},
      {1, 1, 1},
      {3, 1, 16, 0, 7},
      {0, 0},
      std::vector<Index>(17, 1),
      {129, 2, 33},
  };
}

std::vector<MatrixF> make_batch(Index k, const std::vector<Index>& widths,
                                Rng& rng) {
  std::vector<MatrixF> bs;
  bs.reserve(widths.size());
  for (Index w : widths)
    bs.push_back(random_dense(k, w, Dist::kNormalStd1, rng));
  return bs;
}

TEST(MultiplyBatch, DenseBatchBitIdenticalToSingleLoop) {
  Rng rng(41);
  const MatrixF a = random_dense(33, 50, Dist::kNormalStd1, rng);
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(a.cols(), widths, rng);
    for (const auto& [kernel, fn] : dense_kernels()) {
      ExecPolicy single;
      single.dense_kernel = fn;
      std::vector<MatrixF> expected;
      for (const auto& b : bs) expected.push_back(dense_gemm(a, b, single));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.dense_kernel = fn;
        const auto cs = dense_gemm_batch(a, bs, policy);
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << kernel << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, NmBatchBitIdenticalToSingleLoop) {
  Rng rng(42);
  const MatrixF dense =
      random_unstructured(29, 48, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix a = d.terms[0].compressed();
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(a.cols(), widths, rng);
    for (const auto& [kernel, fn] : nm_kernels()) {
      ExecPolicy single;
      single.nm_kernel = fn;
      std::vector<MatrixF> expected;
      for (const auto& b : bs) expected.push_back(nm_gemm(a, b, single));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const auto cs = testing::call_kernel(fn, a, bs, pool);
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << kernel << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, SeriesBatchBitIdenticalToSingleLoop) {
  Rng rng(43);
  const MatrixF dense =
      random_unstructured(37, 56, 0.3, Dist::kNormalStd1, rng);
  const auto plan =
      plan_cache().get_or_build(dense, TasdConfig::parse("4:8+1:8"));
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(plan->cols, widths, rng);
    for (const auto& [kernel, fn] : nm_kernels()) {
      ExecPolicy single;
      single.nm_kernel = fn;
      std::vector<MatrixF> expected;
      for (const auto& b : bs)
        expected.push_back(series_gemm(*plan, b, single));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        ExecPolicy policy;
        policy.pool = &pool;
        policy.nm_kernel = fn;
        const auto cs = series_gemm_batch(*plan, bs, policy);
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << kernel << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, SharesOnePlanAcrossTheBatch) {
  Rng rng(44);
  const MatrixF dense =
      random_unstructured(16, 32, 0.5, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const auto plan = plan_cache().get_or_build(dense, cfg);
  const auto before = plan_cache().stats();
  const auto bs = make_batch(plan->cols, {1, 1, 1, 1, 1, 1, 1, 1}, rng);
  (void)series_gemm_batch(*plan, bs);
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "a batched series GEMM must reuse its one plan, not "
         "decompose per item";
}

TEST(MultiplyBatch, EmptyBatchReturnsEmpty) {
  Rng rng(45);
  const MatrixF a = random_dense(8, 8, Dist::kNormalStd1, rng);
  EXPECT_TRUE(dense_gemm_batch(a, {}).empty());
  const auto plan = build_plan(a, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix& an = plan.terms[0];
  for (const auto& [kernel, fn] : nm_kernels())
    EXPECT_TRUE(testing::call_kernel(fn, an, {}, default_pool()).empty())
        << kernel;
  EXPECT_TRUE(series_gemm_batch(plan, {}).empty());
}

TEST(MultiplyBatch, MismatchedItemThrows) {
  Rng rng(46);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  std::vector<MatrixF> bs;
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(11, 3, Dist::kNormalStd1, rng));  // bad rows
  EXPECT_THROW(dense_gemm_batch(a, bs), Error);
  const auto plan = build_plan(a, TasdConfig::parse("2:4"));
  EXPECT_THROW(series_gemm_batch(plan, bs), Error);
}

// --- series_gemm shape validation: a wrong b.rows() must throw a
// tasd::Error whose message carries both operand shapes (not corrupt
// memory or return garbage), for the single-RHS and the batched path.

TEST(MultiplyBatch, SeriesMultiplyRejectsWrongInnerDimWithShapesInMessage) {
  Rng rng(47);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  const auto plan = build_plan(a, TasdConfig::parse("2:4"));
  for (const Index rows : {Index{11}, Index{13}, Index{1}}) {
    const MatrixF bad = random_dense(rows, 3, Dist::kNormalStd1, rng);
    try {
      (void)series_gemm(plan, bad);
      FAIL() << "series_gemm must reject a " << rows << "-row b";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("8x12"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(rows) + "x3"), std::string::npos)
          << msg;
    }
  }
}

TEST(MultiplyBatch, SeriesMultiplyBatchNamesOffendingItem) {
  Rng rng(48);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  const auto plan = build_plan(a, TasdConfig::parse("2:4"));
  std::vector<MatrixF> bs;
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(9, 3, Dist::kNormalStd1, rng));  // bad rows
  try {
    (void)series_gemm_batch(plan, bs);
    FAIL() << "series_gemm_batch must reject the mismatched item";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("item 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("9x3"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace tasd::rt
