// Tests for the confident-reference machinery (margin-filtered labels).
#include <gtest/gtest.h>

#include "dnn/builders.hpp"
#include "dnn/metrics.hpp"

namespace tasd::dnn {
namespace {

ConvNetOptions tiny() {
  ConvNetOptions o;
  o.input_hw = 8;
  o.width_mult = 0.125;
  o.num_classes = 10;
  return o;
}

TEST(ConfidentLabels, KeepFractionRespected) {
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(32, 8, 3, 801);
  const auto labels = confident_labels(m, eval, 0.5);
  ASSERT_EQ(labels.size(), 32u);
  Index kept = 0;
  for (Index l : labels)
    if (l != kIgnoreLabel) ++kept;
  EXPECT_EQ(kept, 16u);
}

TEST(ConfidentLabels, FullFractionKeepsEverything) {
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(16, 8, 3, 802);
  const auto all = confident_labels(m, eval, 1.0);
  for (Index l : all) EXPECT_NE(l, kIgnoreLabel);
  // And equals plain predict.
  EXPECT_EQ(all, predict(m, eval));
}

TEST(ConfidentLabels, RejectsBadFraction) {
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(4, 8, 3, 803);
  EXPECT_THROW(confident_labels(m, eval, 0.0), tasd::Error);
  EXPECT_THROW(confident_labels(m, eval, 1.5), tasd::Error);
}

TEST(ConfidentLabels, KeptLabelsMatchPredictions) {
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(24, 8, 3, 804);
  const auto conf = confident_labels(m, eval, 0.25);
  const auto pred = predict(m, eval);
  for (std::size_t i = 0; i < conf.size(); ++i) {
    if (conf[i] != kIgnoreLabel) {
      EXPECT_EQ(conf[i], pred[i]);
    }
  }
}

TEST(ConfidentLabels, AgreementSkipsIgnored) {
  // Only non-sentinel entries count.
  std::vector<Index> ref{1, kIgnoreLabel, 3, kIgnoreLabel};
  std::vector<Index> pred{1, 99, 4, 98};
  EXPECT_DOUBLE_EQ(agreement(ref, pred), 0.5);
  // All ignored -> vacuous agreement.
  std::vector<Index> all_ignored{kIgnoreLabel, kIgnoreLabel};
  EXPECT_DOUBLE_EQ(agreement(all_ignored, {0, 1}), 1.0);
}

TEST(ConfidentLabels, SelfAgreementIsPerfect) {
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(32, 8, 3, 805);
  const auto ref = confident_labels(m, eval, 0.5);
  EXPECT_DOUBLE_EQ(top1_agreement(m, eval, ref), 1.0);
}

TEST(ConfidentLabels, ConfidentSubsetMoreRobustToPerturbation) {
  // The reason the mechanism exists: under a mild perturbation, the
  // confident half must agree at least as well as the full set.
  Model m = make_resnet(18, tiny());
  const EvalSet eval = EvalSet::images(64, 8, 3, 806);
  const auto conf = confident_labels(m, eval, 0.5);
  const auto full = predict(m, eval);
  for (auto* l : m.gemm_layers()) l->set_tasd_w(TasdConfig::parse("6:8"));
  const auto perturbed = predict(m, eval);
  EXPECT_GE(agreement(conf, perturbed) + 1e-12, agreement(full, perturbed));
}

}  // namespace
}  // namespace tasd::dnn
