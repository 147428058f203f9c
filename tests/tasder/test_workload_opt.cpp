#include "tasder/workload_opt.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/approx_stats.hpp"

namespace tasd::tasder {
namespace {

TEST(WorkloadOpt, PlainExecutionsCarryNoConfigs) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto execs = plain_executions(net);
  ASSERT_EQ(execs.size(), net.layers.size());
  for (const auto& e : execs) {
    EXPECT_FALSE(e.weight_cfg.has_value());
    EXPECT_FALSE(e.act_cfg.has_value());
  }
}

TEST(WorkloadOpt, EmptyHwProfileYieldsPlain) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::dense_tc());
  const auto execs = optimize_workload(net, hw);
  for (const auto& e : execs) EXPECT_FALSE(e.weight_cfg || e.act_cfg);
}

TEST(WorkloadOpt, SparseWeightsGetTasdW) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  const auto execs = optimize_workload(net, hw);
  Index with_w = 0;
  for (const auto& e : execs) {
    EXPECT_FALSE(e.act_cfg.has_value());  // never both / wrong mode
    if (e.weight_cfg) {
      ++with_w;
      ASSERT_TRUE(e.weight_kept_fraction.has_value());
      EXPECT_LE(*e.weight_kept_fraction, e.weight_cfg->max_density() + 1e-9);
    }
  }
  // The 95 %-sparse profile should make nearly every layer convertible.
  EXPECT_GT(with_w, execs.size() * 3 / 4);
}

TEST(WorkloadOpt, DropBudgetRespected) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  WorkloadOptOptions opt;
  opt.weight_drop_budget = 0.02;
  const auto execs = optimize_workload(net, hw, opt);
  // Spot-check a few layers: the chosen config's actual dropped fraction
  // is within budget.
  int checked = 0;
  for (const auto& e : execs) {
    if (!e.weight_cfg || checked >= 5) continue;
    const MatrixF w = dnn::materialize_weight(e.layer);
    const auto stats = approx_stats(w, *e.weight_cfg);
    EXPECT_LE(stats.dropped_nnz_fraction(), opt.weight_drop_budget + 1e-9);
    ++checked;
  }
  EXPECT_EQ(checked, 5);
}

TEST(WorkloadOpt, TighterBudgetIsLessAggressive) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  WorkloadOptOptions loose;
  loose.weight_drop_budget = 0.10;
  WorkloadOptOptions tight;
  tight.weight_drop_budget = 0.001;
  const auto e_loose = optimize_workload(net, hw, loose);
  const auto e_tight = optimize_workload(net, hw, tight);
  double d_loose = 0.0, d_tight = 0.0;
  for (std::size_t i = 0; i < e_loose.size(); ++i) {
    d_loose += e_loose[i].weight_cfg ? e_loose[i].weight_cfg->max_density()
                                     : 1.0;
    d_tight += e_tight[i].weight_cfg ? e_tight[i].weight_cfg->max_density()
                                     : 1.0;
  }
  EXPECT_LE(d_loose, d_tight);
}

TEST(WorkloadOpt, DenseReluNetGetsTasdA) {
  const auto net = dnn::resnet50_workload(false, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  const auto execs = optimize_workload(net, hw);
  Index with_a = 0;
  for (const auto& e : execs) {
    EXPECT_FALSE(e.weight_cfg.has_value());
    if (e.act_cfg) ++with_a;
  }
  EXPECT_GT(with_a, 0u);
  // The stem (dense image input) must not be decomposed.
  EXPECT_FALSE(execs.front().act_cfg.has_value());
}

TEST(WorkloadOpt, GeluNetUsesPseudoDensityForTasdA) {
  const auto net = dnn::bert_workload(false, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  const auto execs = optimize_workload(net, hw);
  Index with_a = 0;
  for (const auto& e : execs)
    if (e.act_cfg) ++with_a;
  // GELU activations are dense but skewed: pseudo-density enables TASD-A.
  EXPECT_GT(with_a, 0u);
}

TEST(WorkloadOpt, NoTasdUnitsDisablesTasdA) {
  const auto net = dnn::resnet50_workload(false, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::vegeta_m8_no_tasd());
  const auto execs = optimize_workload(net, hw);
  for (const auto& e : execs) EXPECT_FALSE(e.act_cfg.has_value());
}

TEST(WorkloadOpt, MixedBlockSizeSeriesAreJudgedByDecomposition) {
  // A profile whose candidates mix M within one series ("2:4+1:8") has
  // no single block histogram; the search must still pick the first
  // candidate whose decomposition drops within budget.
  HwProfile hw;
  hw.name = "mixed-m";
  hw.patterns = {sparse::NMPattern(2, 4), sparse::NMPattern(1, 8),
                 sparse::NMPattern(2, 8)};
  hw.max_terms = 2;
  const auto candidates = hw.candidate_configs();
  bool mixed = false;
  for (const auto& c : candidates)
    mixed = mixed || c.terms.front().m != c.terms.back().m;
  ASSERT_TRUE(mixed);

  auto net = dnn::resnet34_workload(true, 3);
  net.layers.resize(8);
  const WorkloadOptOptions opt;
  const auto execs = optimize_workload(net, hw, opt);
  ASSERT_EQ(execs.size(), net.layers.size());
  for (const auto& e : execs) {
    const MatrixF w = dnn::materialize_weight(e.layer);
    std::optional<TasdConfig> want;
    double kept = 0.0;
    for (const auto& cfg : candidates) {
      const auto stats = approx_stats(w, cfg);
      if (stats.dropped_nnz_fraction() <= opt.weight_drop_budget) {
        want = cfg;
        kept = static_cast<double>(stats.kept_nnz) /
               static_cast<double>(w.size());
        break;
      }
    }
    EXPECT_EQ(e.weight_cfg, want) << e.layer.name;
    if (want) {
      ASSERT_TRUE(e.weight_kept_fraction.has_value());
      EXPECT_EQ(*e.weight_kept_fraction, kept) << e.layer.name;
    }
  }
}

TEST(WorkloadOpt, SeriesDroppedNnzRejectsMismatchedHistograms) {
  const std::vector<Index> hist4 = {1, 2, 3, 4, 5};  // blocks of M = 4
  // 4 blocks hold 3 non-zeros and 5 hold 4: a series keeping 2 per
  // block drops 4 * 1 + 5 * 2.
  EXPECT_EQ(series_dropped_nnz(hist4, TasdConfig::parse("2:4")), 14u);
  EXPECT_EQ(series_dropped_nnz(hist4, TasdConfig::parse("2:4+1:4")), 5u);
  EXPECT_THROW(series_dropped_nnz(hist4, TasdConfig::parse("2:8")), Error);
  EXPECT_THROW(series_dropped_nnz(hist4, TasdConfig::parse("2:4+1:8")),
               Error);
}

TEST(WorkloadOpt, StcM4LimitedToSingle24) {
  const auto net = dnn::resnet50_workload(true, 42);
  const auto hw = hw_profile_from(accel::ArchConfig::ttc_stc_m4());
  const auto execs = optimize_workload(net, hw);
  for (const auto& e : execs) {
    if (e.weight_cfg) {
      EXPECT_EQ(e.weight_cfg->str(), "2:4");
    }
  }
}

}  // namespace
}  // namespace tasd::tasder
