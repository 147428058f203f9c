// Tests for the channel-permutation pre-pass inside workload TASDER.
#include <gtest/gtest.h>

#include "tasder/workload_opt.hpp"

namespace tasd::tasder {
namespace {

TEST(WorkloadPermutation, NeverLessAggressiveThanPlain) {
  // BERT keeps this test fast (7 distinct layers vs ResNet-50's 54).
  const auto net = dnn::bert_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  WorkloadOptOptions plain;
  WorkloadOptOptions perm;
  perm.use_channel_permutation = true;
  const auto e_plain = optimize_workload(net, hw, plain);
  const auto e_perm = optimize_workload(net, hw, perm);
  ASSERT_EQ(e_plain.size(), e_perm.size());
  for (std::size_t i = 0; i < e_plain.size(); ++i) {
    const double d_plain =
        e_plain[i].weight_cfg ? e_plain[i].weight_cfg->max_density() : 1.0;
    const double d_perm =
        e_perm[i].weight_cfg ? e_perm[i].weight_cfg->max_density() : 1.0;
    // Candidates are tried most-aggressive-first; the permutation can
    // only unlock earlier (sparser) candidates.
    EXPECT_LE(d_perm, d_plain + 1e-12) << e_plain[i].layer.name;
  }
}

TEST(WorkloadPermutation, UnlocksSparserSeriesSomewhere) {
  const auto net = dnn::bert_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  WorkloadOptOptions plain;
  WorkloadOptOptions perm;
  perm.use_channel_permutation = true;
  const auto e_plain = optimize_workload(net, hw, plain);
  const auto e_perm = optimize_workload(net, hw, perm);
  double plain_density = 0.0;
  double perm_density = 0.0;
  for (std::size_t i = 0; i < e_plain.size(); ++i) {
    plain_density +=
        e_plain[i].weight_cfg ? e_plain[i].weight_cfg->max_density() : 1.0;
    perm_density +=
        e_perm[i].weight_cfg ? e_perm[i].weight_cfg->max_density() : 1.0;
  }
  EXPECT_LT(perm_density, plain_density);
}

TEST(WorkloadPermutation, NoEffectOnTasdAWorkloads) {
  const auto net = dnn::resnet50_workload(false, 42);  // dense weights
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  WorkloadOptOptions perm;
  perm.use_channel_permutation = true;
  const auto a = optimize_workload(net, hw, {});
  const auto b = optimize_workload(net, hw, perm);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].act_cfg.has_value(), b[i].act_cfg.has_value());
    if (a[i].act_cfg) {
      EXPECT_EQ(a[i].act_cfg->str(), b[i].act_cfg->str());
    }
  }
}

}  // namespace
}  // namespace tasd::tasder
