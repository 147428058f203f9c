#include "dnn/feature.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sparse/pattern.hpp"
#include "tensor/generator.hpp"

namespace tasd::dnn {
namespace {

TEST(Feature, TaggedAccess) {
  Feature t(Tensor4D(1, 2, 2, 2));
  EXPECT_TRUE(t.is_tensor());
  EXPECT_NO_THROW((void)t.tensor());
  EXPECT_THROW((void)t.matrix(), tasd::Error);

  Feature m(MatrixF(2, 3));
  EXPECT_FALSE(m.is_tensor());
  EXPECT_NO_THROW((void)m.matrix());
  EXPECT_THROW((void)m.tensor(), tasd::Error);
}

TEST(Feature, SizeAndSparsity) {
  Tensor4D t(1, 1, 2, 2);
  t(0, 0, 0, 0) = 1.0F;
  Feature f(std::move(t));
  EXPECT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f.sparsity(), 0.75);
}

TEST(TasdChannelwise, BlocksRunAlongChannels) {
  // 8 channels at one position; 2:8 keeps the two largest magnitudes.
  Tensor4D t(1, 8, 1, 1);
  for (Index c = 0; c < 8; ++c)
    t(0, c, 0, 0) = static_cast<float>(c) + 1.0F;  // 1..8
  const Tensor4D out = tasd_channelwise(t, TasdConfig::parse("2:8"));
  for (Index c = 0; c < 6; ++c) EXPECT_EQ(out(0, c, 0, 0), 0.0F);
  EXPECT_EQ(out(0, 6, 0, 0), 7.0F);
  EXPECT_EQ(out(0, 7, 0, 0), 8.0F);
}

TEST(TasdChannelwise, PositionsIndependent) {
  Rng rng(91);
  const Tensor4D t = random_tensor(2, 8, 3, 3, 1.0, Dist::kNormalStd1, rng);
  const Tensor4D out = tasd_channelwise(t, TasdConfig::parse("4:8"));
  // Per position, exactly 4 of 8 channels survive.
  for (Index n = 0; n < t.n(); ++n)
    for (Index y = 0; y < t.h(); ++y)
      for (Index x = 0; x < t.w(); ++x) {
        int nnz = 0;
        for (Index c = 0; c < 8; ++c)
          if (out(n, c, y, x) != 0.0F) ++nnz;
        EXPECT_EQ(nnz, 4);
      }
}

TEST(TasdChannelwise, LosslessSeriesPreservesTensor) {
  Rng rng(92);
  const Tensor4D t = random_tensor(1, 8, 2, 2, 1.0, Dist::kNormalStd1, rng);
  const Tensor4D out = tasd_channelwise(t, TasdConfig::parse("4:8+4:8"));
  auto fa = t.flat();
  auto fb = out.flat();
  for (Index i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
}

TEST(TasdFeaturewise, BlocksRunAlongFeaturesPerToken) {
  // X is (features x tokens); each token column is decomposed on its own.
  MatrixF x(4, 2);
  // token 0: [1 2 3 4], token 1: [4 3 2 1]
  for (Index f = 0; f < 4; ++f) {
    x(f, 0) = static_cast<float>(f + 1);
    x(f, 1) = static_cast<float>(4 - f);
  }
  const MatrixF out = tasd_featurewise(x, TasdConfig::parse("2:4"));
  EXPECT_EQ(out(0, 0), 0.0F);
  EXPECT_EQ(out(3, 0), 4.0F);
  EXPECT_EQ(out(0, 1), 4.0F);
  EXPECT_EQ(out(3, 1), 0.0F);
}

TEST(TasdFeaturewise, SatisfiesPatternAlongFeatures) {
  Rng rng(93);
  const MatrixF x = random_dense(16, 5, Dist::kNormalStd1, rng);
  const MatrixF out = tasd_featurewise(x, TasdConfig::parse("2:8"));
  // Transposed view has rows = tokens, blocks along features.
  EXPECT_TRUE(
      sparse::satisfies(out.transposed(), sparse::NMPattern(2, 8)));
}

}  // namespace
}  // namespace tasd::dnn
