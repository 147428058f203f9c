#include "runtime/nm_gemm.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "sparse/view.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

TEST(NmGemm, MatchesDenseOnConformingMatrix) {
  Rng rng(511);
  const MatrixF a = random_nm_structured(16, 32, 2, 4, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(32, 8, Dist::kNormalStd1, rng);
  const sparse::NMSparseMatrix c(a, sparse::NMPattern(2, 4));
  EXPECT_TRUE(allclose(nm_gemm(c, b), gemm_ref(a, b), 1e-4, 1e-5));
}

TEST(NmGemm, RaggedColumnsSupported) {
  Rng rng(512);
  const MatrixF a = random_nm_structured(8, 10, 1, 4, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(10, 3, Dist::kNormalStd1, rng);
  const sparse::NMSparseMatrix c(a, sparse::NMPattern(1, 4));
  EXPECT_TRUE(allclose(nm_gemm(c, b), gemm_ref(a, b), 1e-4, 1e-5));
}

TEST(NmGemm, InnerDimMismatchThrows) {
  const sparse::NMSparseMatrix c(MatrixF(4, 8), sparse::NMPattern(2, 4));
  EXPECT_THROW(nm_gemm(c, MatrixF(9, 2)), Error);
}

TEST(SeriesGemm, LosslessSeriesEqualsDense) {
  Rng rng(513);
  const MatrixF a = random_unstructured(8, 32, 0.4, Dist::kNormalStd1, rng);
  // 4:8+4:8 keeps everything.
  const auto cfg = TasdConfig::parse("4:8+4:8");
  ASSERT_TRUE(decompose(a, cfg).lossless());
  const auto plan = build_plan(a, cfg);
  const MatrixF b = random_dense(32, 6, Dist::kNormalStd1, rng);
  EXPECT_TRUE(allclose(series_gemm(plan, b), gemm_ref(a, b), 1e-4, 1e-5));
}

TEST(SeriesGemm, LossyErrorMatchesFunctionalModel) {
  Rng rng(514);
  const MatrixF a = random_dense(8, 32, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8");
  const auto d = decompose(a, cfg);
  const auto plan = build_plan(a, cfg);
  const MatrixF b = random_dense(32, 4, Dist::kNormalStd1, rng);
  // Runtime kernel result == functional tasd_gemm result.
  const MatrixF approx = gemm_ref(d.approximation(), b);
  EXPECT_TRUE(allclose(series_gemm(plan, b), approx, 1e-4, 1e-5));
}

TEST(SeriesGemm, NnzEqualsKeptElements) {
  Rng rng(515);
  const MatrixF a = random_unstructured(16, 64, 0.3, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const auto d = decompose(a, cfg);
  const auto plan = build_plan(a, cfg);
  EXPECT_EQ(plan.nnz(), a.nnz() - d.residual.nnz());
  EXPECT_EQ(plan.terms.size(), 2u);
}

TEST(SeriesGemm, EmptyDecomposition) {
  const auto plan = build_plan(MatrixF(4, 8), TasdConfig::parse("2:8"));
  const MatrixF c = series_gemm(plan, MatrixF(8, 2));
  for (float v : c.flat()) EXPECT_EQ(v, 0.0F);
}

}  // namespace
}  // namespace tasd::rt
