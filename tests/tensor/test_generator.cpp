#include "tensor/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "sparse/pattern.hpp"

namespace tasd {
namespace {

TEST(Generator, DenseHasNoStructuralZeros) {
  Rng rng(5);
  MatrixF m = random_dense(32, 32, Dist::kUniform01, rng);
  // U[0,1) draws exact zero with probability ~0: expect near-full density.
  EXPECT_GT(1.0 - m.sparsity(), 0.999);
}

TEST(Generator, UnstructuredHitsTargetDensity) {
  Rng rng(6);
  const double density = 0.3;
  MatrixF m = random_unstructured(100, 100, density, Dist::kNormalStd1, rng);
  EXPECT_NEAR(1.0 - m.sparsity(), density, 0.03);
}

TEST(Generator, UnstructuredExtremes) {
  Rng rng(7);
  MatrixF empty = random_unstructured(10, 10, 0.0, Dist::kNormalStd1, rng);
  EXPECT_EQ(empty.nnz(), 0u);
  MatrixF full = random_unstructured(10, 10, 1.0, Dist::kNormalStd1, rng);
  EXPECT_EQ(full.nnz(), 100u);
}

TEST(Generator, UnstructuredRejectsBadDensity) {
  Rng rng(8);
  EXPECT_THROW(random_unstructured(2, 2, -0.1, Dist::kNormalStd1, rng), Error);
  EXPECT_THROW(random_unstructured(2, 2, 1.5, Dist::kNormalStd1, rng), Error);
}

TEST(Generator, NmStructuredSatisfiesPattern) {
  Rng rng(9);
  MatrixF m = random_nm_structured(16, 64, 2, 4, Dist::kNormalStd1, rng);
  EXPECT_TRUE(sparse::satisfies(m, sparse::NMPattern(2, 4)));
  // Exactly 2 non-zeros per full block.
  EXPECT_EQ(m.nnz(), 16u * (64u / 4u) * 2u);
}

TEST(Generator, NmStructuredHandlesRaggedTail) {
  Rng rng(10);
  // cols = 10, blocks of 4: tail block has 2 elements.
  MatrixF m = random_nm_structured(4, 10, 3, 4, Dist::kNormalStd1, rng);
  EXPECT_TRUE(sparse::satisfies(m, sparse::NMPattern(3, 4)));
}

TEST(Generator, NmStructuredRejectsInvalidPattern) {
  Rng rng(11);
  EXPECT_THROW(random_nm_structured(2, 8, 5, 4, Dist::kNormalStd1, rng), Error);
  EXPECT_THROW(random_nm_structured(2, 8, 1, 0, Dist::kNormalStd1, rng), Error);
}

TEST(Generator, MagnitudePruneExactCount) {
  Rng rng(12);
  MatrixF m = random_dense(20, 20, Dist::kNormalStd1, rng);
  MatrixF pruned = magnitude_prune(m, 0.75);
  EXPECT_EQ(pruned.nnz(), 100u);
  EXPECT_DOUBLE_EQ(pruned.sparsity(), 0.75);
}

TEST(Generator, MagnitudePruneKeepsLargest) {
  MatrixF m(1, 4, {0.1F, -5.0F, 0.2F, 3.0F});
  MatrixF pruned = magnitude_prune(m, 0.5);
  EXPECT_EQ(pruned(0, 0), 0.0F);
  EXPECT_EQ(pruned(0, 1), -5.0F);
  EXPECT_EQ(pruned(0, 2), 0.0F);
  EXPECT_EQ(pruned(0, 3), 3.0F);
}

TEST(Generator, MagnitudePruneZeroTargetIsIdentity) {
  Rng rng(13);
  MatrixF m = random_dense(5, 5, Dist::kNormalStd1, rng);
  EXPECT_EQ(magnitude_prune(m, 0.0), m);
}

TEST(Generator, MagnitudePruneFullTargetZeroesAll) {
  Rng rng(14);
  MatrixF m = random_dense(5, 5, Dist::kNormalStd1, rng);
  EXPECT_EQ(magnitude_prune(m, 1.0).nnz(), 0u);
}

/// Reference pruning: order elements by (|w|, index) and zero the first
/// llround(sparsity * size) of them with +0.0.
MatrixF reference_prune(MatrixF m, double sparsity) {
  auto flat = m.flat();
  const auto to_zero = static_cast<Index>(
      std::llround(sparsity * static_cast<double>(flat.size())));
  std::vector<Index> order(flat.size());
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&flat](Index a, Index b) {
    const float fa = std::fabs(flat[a]);
    const float fb = std::fabs(flat[b]);
    if (fa != fb) return fa < fb;
    return a < b;
  });
  for (Index i = 0; i < to_zero; ++i) flat[order[i]] = 0.0F;
  return m;
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Generator, MagnitudePruneTiesFollowIndexOrder) {
  // Few distinct magnitudes, both signs and both zeros, so almost every
  // cut falls inside a tie group; the result must match the (|w|, index)
  // reference bit for bit, including which -0.0 entries survive.
  const float values[] = {0.0F, -0.0F, 0.5F, -0.5F, 1.0F, -1.0F,
                          2.0F, -2.0F, 1e-40F, -1e-40F};
  Rng rng(77);
  int cases = 0;
  for (Index rows : {1u, 3u, 17u}) {
    for (Index cols : {1u, 8u, 31u}) {
      for (double sparsity : {0.0, 0.1, 0.33, 0.5, 0.77, 0.95, 1.0}) {
        for (int rep = 0; rep < 4; ++rep) {
          MatrixF m(rows, cols);
          for (float& v : m.flat())
            v = values[static_cast<std::size_t>(rng.uniform_int(0, 9))];
          const MatrixF want = reference_prune(m, sparsity);
          const MatrixF got = magnitude_prune(m, sparsity);
          EXPECT_TRUE(same_bits(got, want))
              << rows << "x" << cols << " sparsity " << sparsity << " rep "
              << rep;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 252);
}

TEST(Generator, MagnitudePrunePrunedNegativeZeroBecomesPositive) {
  MatrixF m(1, 4, {-0.0F, -0.0F, -3.0F, 3.0F});
  const MatrixF pruned = magnitude_prune(m, 0.25);
  EXPECT_FALSE(std::signbit(pruned(0, 0)));  // pruned: written as +0.0
  EXPECT_TRUE(std::signbit(pruned(0, 1)));   // kept as it was
  // The cut falls inside the {-3, 3} tie group: the lower index goes.
  const MatrixF three = magnitude_prune(m, 0.75);
  EXPECT_EQ(three(0, 2), 0.0F);
  EXPECT_EQ(three(0, 3), 3.0F);
}

TEST(Generator, TensorDensityTarget) {
  Rng rng(15);
  Tensor4D t = random_tensor(2, 8, 8, 8, 0.5, Dist::kNormalStd1, rng);
  EXPECT_NEAR(1.0 - t.sparsity(), 0.5, 0.05);
}

TEST(Generator, DistributionsDiffer) {
  Rng rng_a(16);
  Rng rng_b(16);
  MatrixF u = random_dense(50, 50, Dist::kUniform01, rng_a);
  MatrixF n = random_dense(50, 50, Dist::kNormalStd1, rng_b);
  // Uniform draws are non-negative; normal draws are not.
  bool any_negative = false;
  for (float v : n.flat()) any_negative |= v < 0.0F;
  EXPECT_TRUE(any_negative);
  for (float v : u.flat()) EXPECT_GE(v, 0.0F);
}

}  // namespace
}  // namespace tasd
