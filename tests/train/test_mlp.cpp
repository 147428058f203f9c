#include "train/mlp.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::train {
namespace {

TEST(Mlp, ForwardShapes) {
  Mlp mlp({8, 16, 4}, 1);
  Rng rng(1);
  const MatrixF x = random_dense(8, 5, Dist::kNormalStd1, rng);
  const MatrixF logits = mlp.forward(x);
  EXPECT_EQ(logits.rows(), 4u);
  EXPECT_EQ(logits.cols(), 5u);
}

TEST(Mlp, RejectsBadArchitecture) {
  EXPECT_THROW(Mlp({8}, 1), Error);
}

TEST(Mlp, SoftmaxLossOfUniformLogitsIsLogC) {
  MatrixF logits(4, 3);  // all-zero logits: uniform distribution
  MatrixF dlogits;
  const double loss = Mlp::softmax_ce_loss(logits, {0, 1, 2}, dlogits);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  // Gradient: p - onehot, scaled by 1/batch.
  EXPECT_NEAR(dlogits(0, 0), (0.25 - 1.0) / 3.0, 1e-6);
  EXPECT_NEAR(dlogits(1, 0), 0.25 / 3.0, 1e-6);
}

TEST(Mlp, LossRejectsBadLabels) {
  MatrixF logits(4, 2);
  MatrixF dlogits;
  EXPECT_THROW(Mlp::softmax_ce_loss(logits, {0}, dlogits), Error);
  EXPECT_THROW(Mlp::softmax_ce_loss(logits, {0, 7}, dlogits), Error);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  // Numeric check of the hand-written backward pass on a handful of
  // weight elements across both layers.
  Rng rng(7);
  const MatrixF x = random_dense(4, 2, Dist::kNormalStd1, rng);
  const std::vector<Index> labels{1, 2};

  // Analytic gradients, recovered from a unit-lr SGD step.
  Mlp analytic_model({4, 6, 3}, 7);
  MatrixF dlogits;
  (void)Mlp::softmax_ce_loss(analytic_model.forward(x), labels, dlogits);
  analytic_model.backward(dlogits, {});
  std::vector<MatrixF> weights_before;
  for (const auto& l : analytic_model.layers())
    weights_before.push_back(l.weight);
  analytic_model.step(1.0);

  auto loss_with_nudge = [&](std::size_t li, Index r, Index c, float eps) {
    Mlp probe({4, 6, 3}, 7);
    probe.layers_mutable()[li].weight(r, c) += eps;
    MatrixF dummy;
    return Mlp::softmax_ce_loss(probe.forward(x), labels, dummy);
  };

  const float eps = 1e-3F;
  for (std::size_t li = 0; li < 2; ++li) {
    for (const auto& [r, c] : {std::pair<Index, Index>{0, 0},
                              std::pair<Index, Index>{2, 1}}) {
      const double numeric =
          (loss_with_nudge(li, r, c, eps) - loss_with_nudge(li, r, c, -eps)) /
          (2.0 * eps);
      const double analytic =
          weights_before[li](r, c) - analytic_model.layers()[li].weight(r, c);
      EXPECT_NEAR(analytic, numeric, 5e-3)
          << "layer " << li << " element (" << r << "," << c << ")";
    }
  }
}

TEST(Mlp, LosslessHooksMatchPlainBackward) {
  // 4:8+4:8 keeps every element: hooked training must be bit-identical.
  Rng rng(9);
  const MatrixF x = random_dense(8, 4, Dist::kNormalStd1, rng);
  const std::vector<Index> labels{0, 1, 2, 3};

  Mlp plain({8, 16, 4}, 11);
  Mlp hooked({8, 16, 4}, 11);
  TasdTrainingHooks hooks;
  hooks.activations = TasdConfig::parse("4:8+4:8");
  hooks.gradients = TasdConfig::parse("4:8+4:8");

  for (int it = 0; it < 3; ++it) {
    MatrixF dl_a, dl_b;
    (void)Mlp::softmax_ce_loss(plain.forward(x), labels, dl_a);
    (void)Mlp::softmax_ce_loss(hooked.forward(x), labels, dl_b);
    plain.backward(dl_a, {});
    hooked.backward(dl_b, hooks);
    plain.step(0.1);
    hooked.step(0.1);
  }
  for (std::size_t li = 0; li < plain.layers().size(); ++li)
    EXPECT_EQ(plain.layers()[li].weight, hooked.layers()[li].weight);
}

TEST(Mlp, PredictReturnsValidClasses) {
  Mlp mlp({8, 12, 5}, 13);
  Rng rng(13);
  const MatrixF x = random_dense(8, 10, Dist::kNormalStd1, rng);
  for (Index cls : mlp.predict(x)) EXPECT_LT(cls, 5u);
}

}  // namespace
}  // namespace tasd::train
