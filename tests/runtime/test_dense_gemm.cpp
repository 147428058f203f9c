#include "runtime/dense_gemm.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

TEST(DenseGemm, MatchesReference) {
  Rng rng(501);
  const MatrixF a = random_dense(17, 23, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(23, 9, Dist::kNormalStd1, rng);
  EXPECT_TRUE(allclose(dense_gemm(a, b), gemm_ref(a, b), 1e-4, 1e-5));
}

TEST(DenseGemm, HandlesKNotMultipleOfUnroll) {
  Rng rng(502);
  for (Index k : {1u, 2u, 3u, 5u, 7u}) {
    const MatrixF a = random_dense(4, k, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(k, 6, Dist::kNormalStd1, rng);
    EXPECT_TRUE(allclose(dense_gemm(a, b), gemm_ref(a, b), 1e-4, 1e-5))
        << "k=" << k;
  }
}

TEST(DenseGemm, AccumulatesIntoC) {
  MatrixF a(1, 4, {1, 1, 1, 1});
  MatrixF b(4, 1, {1, 1, 1, 1});
  for (const auto& [name, fn] : dense_kernels()) {
    MatrixF c(1, 1, {10.0F});
    fn(a, {&b, 1}, {&c, 1}, default_pool());
    EXPECT_EQ(c(0, 0), 14.0F) << name;
  }
}

TEST(DenseGemm, ShapeChecks) {
  MatrixF a(2, 3);
  MatrixF b(4, 5);
  EXPECT_THROW(dense_gemm(a, b), Error);
  const MatrixF bs[] = {MatrixF(3, 5), b};
  EXPECT_THROW(dense_gemm_batch(a, bs), Error);
}

TEST(DenseGemm, SparseAndDenseInputsSameResult) {
  // The dense kernel must not behave differently on zeros (no skipping).
  Rng rng(503);
  const MatrixF a = random_unstructured(8, 16, 0.1, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(16, 8, Dist::kNormalStd1, rng);
  EXPECT_TRUE(allclose(dense_gemm(a, b), gemm_ref(a, b), 1e-4, 1e-5));
}

}  // namespace
}  // namespace tasd::rt
