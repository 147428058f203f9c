#include "tasder/tasda.hpp"

#include <gtest/gtest.h>

#include "dnn/builders.hpp"

namespace tasd::tasder {
namespace {

std::vector<TasdConfig> vegeta_candidates() {
  return hw_profile_from(accel::ArchConfig::ttc_vegeta_m8())
      .candidate_configs();
}

TEST(SelectTasdaConfig, PicksMostAggressiveUnderBudget) {
  const auto candidates = vegeta_candidates();
  // Sparsity 0.80 + alpha 0.05 = 0.85 budget: the sparsest config under
  // 0.85 approximated sparsity... 1:8 has 0.875 (too much), 2:8 has 0.75.
  const auto cfg = select_tasda_config(candidates, 0.80, 0.05);
  ASSERT_TRUE(cfg);
  EXPECT_EQ(cfg->str(), "2:8");
}

TEST(SelectTasdaConfig, HighSparsityGetsSparsestPattern) {
  const auto cfg = select_tasda_config(vegeta_candidates(), 0.95, 0.05);
  ASSERT_TRUE(cfg);
  EXPECT_EQ(cfg->str(), "1:8");
}

TEST(SelectTasdaConfig, DenseActivationsGetNothing) {
  // Sparsity 0 + small alpha: even the least aggressive config (4:8+2:8,
  // 0.25 approx sparsity) exceeds the budget.
  EXPECT_FALSE(select_tasda_config(vegeta_candidates(), 0.0, 0.05));
}

TEST(SelectTasdaConfig, AlphaIncreasesAggressiveness) {
  const auto cautious = select_tasda_config(vegeta_candidates(), 0.70, 0.0);
  const auto eager = select_tasda_config(vegeta_candidates(), 0.70, 0.10);
  ASSERT_TRUE(cautious);
  ASSERT_TRUE(eager);
  EXPECT_GE(cautious->max_density(), eager->max_density());
}

struct Fixture {
  dnn::Model model;
  dnn::EvalSet calib;
  dnn::EvalSet eval;
  std::vector<Index> reference;
  HwProfile hw;

  static Fixture relu_resnet() {
    dnn::ConvNetOptions o;
    o.input_hw = 8;
    o.width_mult = 0.125;
    o.num_classes = 10;
    Fixture f{dnn::make_resnet(18, o), dnn::EvalSet::images(16, 8, 3, 301),
              dnn::EvalSet::images(32, 8, 3, 302), {},
              hw_profile_from(accel::ArchConfig::ttc_vegeta_m8())};
    f.reference = dnn::predict(f.model, f.eval);
    return f;
  }

  static Fixture gelu_bert() {
    dnn::TransformerOptions o;
    o.dim = 16;
    o.layers = 2;
    o.heads = 2;
    o.num_classes = 10;
    Fixture f{dnn::make_bert(o), dnn::EvalSet::tokens(16, 16, 8, 303),
              dnn::EvalSet::tokens(32, 16, 8, 304), {},
              hw_profile_from(accel::ArchConfig::ttc_vegeta_m8())};
    f.reference = dnn::predict(f.model, f.eval);
    return f;
  }
};

TEST(TasdaLayerWise, ReluNetGetsConfigsOnSparseLayers) {
  auto f = Fixture::relu_resnet();
  const auto r =
      tasda_layer_wise(f.model, f.hw, f.calib, f.eval, f.reference);
  Index with_config = 0;
  for (const auto& d : r.decisions)
    if (d.config) ++with_config;
  EXPECT_GT(with_config, 0u);
  EXPECT_LT(r.mac_fraction, 1.0);
}

TEST(TasdaLayerWise, GeluNetUsesPseudoDensity) {
  auto f = Fixture::gelu_bert();
  const auto r =
      tasda_layer_wise(f.model, f.hw, f.calib, f.eval, f.reference);
  bool pseudo_used = false;
  for (const auto& d : r.decisions)
    if (d.config && d.used_pseudo_density) pseudo_used = true;
  EXPECT_TRUE(pseudo_used);
}

TEST(TasdaLayerWise, RespectsAllowTasdAFlag) {
  auto f = Fixture::gelu_bert();
  const auto r =
      tasda_layer_wise(f.model, f.hw, f.calib, f.eval, f.reference);
  for (auto* l : f.model.gemm_layers()) {
    if (!l->allow_tasd_a()) {
      EXPECT_FALSE(l->tasd_a().has_value());
    }
  }
  (void)r;
}

TEST(TasdaAuto, MeetsQualityThreshold) {
  auto f = Fixture::relu_resnet();
  const auto r =
      tasda_layer_wise_auto(f.model, f.hw, f.calib, f.eval, f.reference);
  EXPECT_GE(r.achieved_agreement, 0.99);
}

TEST(TasdaUniform, AppliesOnlyToEligibleLayers) {
  auto f = Fixture::gelu_bert();
  const auto r = tasda_apply_uniform(f.model, TasdConfig::parse("4:8"),
                                     f.eval, f.reference);
  // 2 encoders x 2 MLP FCs = 4 eligible layers (attention projections
  // and the classifier head are excluded, Fig. 8).
  EXPECT_EQ(r.decisions.size(), 4u);
}

}  // namespace
}  // namespace tasd::tasder
