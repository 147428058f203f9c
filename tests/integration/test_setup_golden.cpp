// Golden and determinism checks for the offline setup path: weight
// materialization, TASDER's per-layer search, and the compile that binds
// what the search chose. The constants were recorded from the serial
// implementation (one layer at a time, pruning by an index-ordered
// nth_element, one plan built per search candidate). The parallel path
// must reproduce them bit for bit, so ctest runs this suite at the
// default pool size and again with TASD_NUM_THREADS=1 and =3
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/arch.hpp"
#include "core/plan_cache.hpp"
#include "dnn/layer_binding.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "sparse/stats.hpp"
#include "tasder/hw_profile.hpp"
#include "tasder/workload_opt.hpp"

namespace tasd {
namespace {

/// Every layer's content_fingerprint, folded in layer order.
ContentFingerprint fold_fingerprints(const dnn::NetworkWorkload& net) {
  const std::vector<std::optional<TasdConfig>> dense(net.layers.size());
  ContentFingerprint folded;
  for (const auto& binding : dnn::bind_layers(net, dense)) {
    const ContentFingerprint f = content_fingerprint(binding.weight);
    folded.lo = folded.lo * 1099511628211ULL ^ f.lo;
    folded.hi = (folded.hi ^ f.hi) * 0x9e3779b97f4a7c15ULL;
  }
  return folded;
}

TEST(SetupGolden, MaterializedWeightsMatchRecordedFingerprints) {
  struct Case {
    const char* name;
    dnn::NetworkWorkload net;
    ContentFingerprint want;
  };
  const Case cases[] = {
      {"resnet34 sparse", dnn::resnet34_workload(true, 1),
       {0x751fee6f8fa5be6fULL, 0x32f5bee826d7fb75ULL}},
      {"resnet34 dense", dnn::resnet34_workload(false, 1),
       {0xfa813197fdd3908aULL, 0x909c6c0d060f73baULL}},
      {"resnet50 sparse", dnn::resnet50_workload(true, 42),
       {0x952e36f646fcc874ULL, 0xa4f63aa020df3c3cULL}},
      {"resnet50 dense", dnn::resnet50_workload(false, 42),
       {0x968979435ead5e7eULL, 0xbbfb1edba5c79feeULL}},
      {"bert sparse", dnn::bert_workload(true, 42),
       {0xc39655778d3a8e3eULL, 0xbea0f1aaad342f1aULL}},
      {"bert dense", dnn::bert_workload(false, 42),
       {0xee7a539e950c4a00ULL, 0x7c80be54d0f75e86ULL}},
      {"decode step", dnn::decode_step_workload(256, 512, true, 1),
       {0x59c18d8961f8798eULL, 0x0680f55e2ab3fd94ULL}},
  };
  for (const auto& c : cases) {
    const ContentFingerprint got = fold_fingerprints(c.net);
    EXPECT_EQ(got.lo, c.want.lo) << c.name;
    EXPECT_EQ(got.hi, c.want.hi) << c.name;
  }
}

/// One layer's recorded TASD-W choice; an empty config means none.
struct Choice {
  const char* config;
  double kept_fraction;
};

TEST(SetupGolden, TasderConfigsMatchRecordedSearch) {
  // Sparse ResNet-34 (seed 1) under every paper design, default options.
  // An empty list means no layer gets a series.
  const std::vector<std::pair<const char*, std::vector<Choice>>> recorded = {
    {"TC", {}},
    {"DSTC", {}},
    {"TTC-STC-M4",
     {{"", 0.0}, {"", 0.0}, {"", 0.0}, {"", 0.0}, {"", 0.0}, {"", 0.0},
      {"2:4", 0x1.d18e38e38e38ep-4}, {"2:4", 0x1.0771c71c71c72p-4},
      {"2:4", 0x1.269c71c71c71cp-5}, {"2:4", 0x1.81p-5}, {"2:4", 0x1.f4p-5},
      {"2:4", 0x1.06638e38e38e4p-4}, {"2:4", 0x1.b3e38e38e38e4p-5},
      {"2:4", 0x1.41638e38e38e4p-5}, {"2:4", 0x1.2238e38e38e39p-5},
      {"2:4", 0x1.75e38e38e38e4p-5}, {"2:4", 0x1.eaa38e38e38e4p-5},
      {"2:4", 0x1.08038e38e38e4p-4}, {"2:4", 0x1.c2cp-5},
      {"2:4", 0x1.4bf8e38e38e39p-5}, {"2:4", 0x1.1f75555555555p-5},
      {"2:4", 0x1.68471c71c71c7p-5}, {"2:4", 0x1.df55555555555p-5},
      {"2:4", 0x1.0905555555555p-4}, {"2:4", 0x1.cf871c71c71c7p-5},
      {"2:4", 0x1.578aaaaaaaaabp-5}, {"2:4", 0x1.1e5c71c71c71cp-5},
      {"2:4", 0x1.5b7c71c71c71cp-5}, {"2:4", 0x1.d3aaaaaaaaaabp-5},
      {"2:4", 0x1.091p-4}, {"2:4", 0x1.dbad555555555p-5}, {"2:4", 0x1.645p-5},
      {"2:4", 0x1.1f08e38e38e39p-5}, {"2:4", 0x1.4f7f1c71c71c7p-5},
      {"2:4", 0x1.c6b471c71c71cp-5}, {"2:4", 0x1.0874p-4}, {"", 0.0}}},
    {"TTC-STC-M8",
     {{"", 0.0}, {"", 0.0}, {"4:8", 0x1.f3c71c71c71c7p-3},
      {"4:8", 0x1.c41c71c71c71cp-3}, {"4:8", 0x1.961c71c71c71cp-3},
      {"4:8", 0x1.4ed5555555555p-3}, {"4:8", 0x1.d6e38e38e38e4p-4},
      {"4:8", 0x1.08471c71c71c7p-4}, {"4:8", 0x1.26f1c71c71c72p-5},
      {"4:8", 0x1.84p-5}, {"4:8", 0x1.f62aaaaaaaaabp-5},
      {"4:8", 0x1.074e38e38e38ep-4}, {"4:8", 0x1.b6p-5},
      {"4:8", 0x1.41e38e38e38e4p-5}, {"4:8", 0x1.229c71c71c71cp-5},
      {"4:8", 0x1.7655555555555p-5}, {"4:8", 0x1.ec238e38e38e4p-5},
      {"4:8", 0x1.090c71c71c71cp-4}, {"4:8", 0x1.c3cp-5}, {"4:8", 0x1.4c8p-5},
      {"4:8", 0x1.1fd8e38e38e39p-5}, {"4:8", 0x1.68dc71c71c71cp-5},
      {"4:8", 0x1.e0f8e38e38e39p-5}, {"4:8", 0x1.0a05555555555p-4},
      {"4:8", 0x1.d0c71c71c71c7p-5}, {"4:8", 0x1.58271c71c71c7p-5},
      {"4:8", 0x1.1ebc71c71c71cp-5}, {"4:8", 0x1.5c11c71c71c72p-5},
      {"4:8", 0x1.d4ep-5}, {"4:8", 0x1.0a28e38e38e39p-4},
      {"4:8", 0x1.dd2aaaaaaaaabp-5}, {"4:8", 0x1.64bp-5},
      {"4:8", 0x1.1f4f1c71c71c7p-5}, {"4:8", 0x1.502p-5},
      {"4:8", 0x1.c7f471c71c71cp-5}, {"4:8", 0x1.0976aaaaaaaabp-4},
      {"4:8", 0x1.87af1a9fbe76dp-3}}},
    {"TTC-VEGETA-M4",
     {{"2:4+1:4", 0x1.5492492492492p-2}, {"2:4+1:4", 0x1.22871c71c71c7p-2},
      {"2:4+1:4", 0x1.f98e38e38e38ep-3}, {"2:4+1:4", 0x1.c80e38e38e38ep-3},
      {"2:4+1:4", 0x1.982aaaaaaaaabp-3}, {"2:4+1:4", 0x1.4f71c71c71c72p-3},
      {"2:4", 0x1.d18e38e38e38ep-4}, {"2:4", 0x1.0771c71c71c72p-4},
      {"2:4", 0x1.269c71c71c71cp-5}, {"2:4", 0x1.81p-5}, {"2:4", 0x1.f4p-5},
      {"2:4", 0x1.06638e38e38e4p-4}, {"2:4", 0x1.b3e38e38e38e4p-5},
      {"2:4", 0x1.41638e38e38e4p-5}, {"2:4", 0x1.2238e38e38e39p-5},
      {"2:4", 0x1.75e38e38e38e4p-5}, {"2:4", 0x1.eaa38e38e38e4p-5},
      {"2:4", 0x1.08038e38e38e4p-4}, {"2:4", 0x1.c2cp-5},
      {"2:4", 0x1.4bf8e38e38e39p-5}, {"2:4", 0x1.1f75555555555p-5},
      {"2:4", 0x1.68471c71c71c7p-5}, {"2:4", 0x1.df55555555555p-5},
      {"2:4", 0x1.0905555555555p-4}, {"2:4", 0x1.cf871c71c71c7p-5},
      {"2:4", 0x1.578aaaaaaaaabp-5}, {"2:4", 0x1.1e5c71c71c71cp-5},
      {"2:4", 0x1.5b7c71c71c71cp-5}, {"2:4", 0x1.d3aaaaaaaaaabp-5},
      {"2:4", 0x1.091p-4}, {"2:4", 0x1.dbad555555555p-5}, {"2:4", 0x1.645p-5},
      {"2:4", 0x1.1f08e38e38e39p-5}, {"2:4", 0x1.4f7f1c71c71c7p-5},
      {"2:4", 0x1.c6b471c71c71cp-5}, {"2:4", 0x1.0874p-4},
      {"2:4+1:4", 0x1.898624dd2f1aap-3}}},
    {"TTC-VEGETA-M8",
     {{"4:8+1:8", 0x1.54ae26501bdd3p-2}, {"4:8+1:8", 0x1.23p-2},
      {"4:8", 0x1.f3c71c71c71c7p-3}, {"4:8", 0x1.c41c71c71c71cp-3},
      {"4:8", 0x1.961c71c71c71cp-3}, {"4:8", 0x1.4ed5555555555p-3},
      {"2:8+1:8", 0x1.d238e38e38e39p-4}, {"2:8+1:8", 0x1.078p-4},
      {"2:8", 0x1.248e38e38e38ep-5}, {"2:8+1:8", 0x1.83p-5},
      {"2:8+1:8", 0x1.f555555555555p-5}, {"2:8+1:8", 0x1.06f1c71c71c72p-4},
      {"2:8", 0x1.ad71c71c71c72p-5}, {"2:8", 0x1.3fp-5},
      {"2:8", 0x1.20638e38e38e4p-5}, {"2:8", 0x1.722aaaaaaaaabp-5},
      {"2:8+1:8", 0x1.eb55555555555p-5}, {"2:8+1:8", 0x1.0891c71c71c72p-4},
      {"2:8", 0x1.bb4p-5}, {"2:8", 0x1.492aaaaaaaaabp-5},
      {"2:8", 0x1.1d71c71c71c72p-5}, {"2:8", 0x1.6478e38e38e39p-5},
      {"2:8+1:8", 0x1.e0438e38e38e4p-5}, {"2:8+1:8", 0x1.0981c71c71c72p-4},
      {"2:8", 0x1.c8471c71c71c7p-5}, {"2:8", 0x1.5431c71c71c72p-5},
      {"2:8", 0x1.1c871c71c71c7p-5}, {"2:8", 0x1.57ee38e38e38ep-5},
      {"2:8", 0x1.cc871c71c71c7p-5}, {"2:8+1:8", 0x1.09a2aaaaaaaabp-4},
      {"2:8+1:8", 0x1.dc7b8e38e38e4p-5}, {"2:8", 0x1.60cp-5},
      {"2:8", 0x1.1d21c71c71c72p-5}, {"2:8", 0x1.4c8471c71c71cp-5},
      {"2:8", 0x1.bf48p-5}, {"2:8+1:8", 0x1.08e9555555555p-4},
      {"4:8", 0x1.87af1a9fbe76dp-3}}},
  };
  const auto net = dnn::resnet34_workload(true, 1);
  const auto designs = accel::ArchConfig::paper_designs();
  ASSERT_EQ(designs.size(), recorded.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& [arch, choices] = recorded[d];
    ASSERT_EQ(designs[d].name, arch);
    const auto execs =
        tasder::optimize_workload(net, tasder::hw_profile_from(designs[d]));
    ASSERT_EQ(execs.size(), net.layers.size());
    for (std::size_t i = 0; i < execs.size(); ++i) {
      const auto& e = execs[i];
      EXPECT_FALSE(e.act_cfg.has_value());
      if (choices.empty() || choices[i].config[0] == '\0') {
        EXPECT_FALSE(e.weight_cfg.has_value()) << arch << " layer " << i;
        EXPECT_FALSE(e.weight_kept_fraction.has_value());
        continue;
      }
      ASSERT_TRUE(e.weight_cfg && e.weight_kept_fraction)
          << arch << " layer " << i;
      EXPECT_EQ(e.weight_cfg->str(), choices[i].config)
          << arch << " layer " << i;
      EXPECT_EQ(*e.weight_kept_fraction, choices[i].kept_fraction)
          << arch << " layer " << i;
    }
  }
}

TEST(SetupGolden, HistogramDropCountEqualsBuiltPlan) {
  // Every distinct candidate of every paper design, on a spread of
  // ResNet-34 layers (stem, each stage, projections, fc).
  std::map<std::string, TasdConfig> candidates;
  for (const auto& arch : accel::ArchConfig::paper_designs())
    for (const auto& cfg : tasder::hw_profile_from(arch).candidate_configs())
      candidates.emplace(cfg.str(), cfg);
  ASSERT_FALSE(candidates.empty());
  const auto net = dnn::resnet34_workload(true, 1);
  for (std::size_t i = 0; i < net.layers.size(); i += 6) {
    const MatrixF w = dnn::materialize_weight(net.layers[i]);
    for (const auto& [name, cfg] : candidates) {
      const auto hist = sparse::block_nnz_histogram(w, cfg.terms.front().m);
      EXPECT_EQ(tasder::series_dropped_nnz(hist, cfg),
                build_plan(w, cfg).stats.dropped_nnz)
          << net.layers[i].name << " " << name;
    }
  }
}

TEST(SetupGolden, SearchServesWhatCompileBinds) {
  const auto net = dnn::resnet34_workload(true, 1);
  const auto hw = tasder::hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  plan_cache().clear();
  const PlanCacheStats before = plan_cache().stats();
  const auto execs = tasder::optimize_workload(net, hw);
  const PlanCacheStats searched = plan_cache().stats();

  std::vector<std::optional<TasdConfig>> configs;
  std::uint64_t configured = 0;
  for (const auto& e : execs) {
    configs.push_back(e.weight_cfg);
    configured += e.weight_cfg.has_value();
  }
  EXPECT_EQ(configured, net.layers.size());
  // The search decomposes exactly the series it chose, nothing else ...
  EXPECT_EQ(searched.decompositions - before.decompositions, configured);

  // ... and compile binds those plans without decomposing again.
  const auto cn = rt::compile(net, configs, {});
  const PlanCacheStats compiled = plan_cache().stats();
  EXPECT_EQ(compiled.decompositions - searched.decompositions, 0u);
  EXPECT_EQ(compiled.hits - searched.hits, configured);
  ASSERT_EQ(cn.layer_count(), execs.size());
  for (std::size_t i = 0; i < execs.size(); ++i) {
    if (!execs[i].weight_cfg) continue;
    const auto& l = cn.layer(i);
    ASSERT_TRUE(l.plan) << i;
    const double kept = static_cast<double>(l.plan->nnz()) /
                        static_cast<double>(l.m * l.k);
    EXPECT_EQ(kept, *execs[i].weight_kept_fraction) << l.name;
  }
}

}  // namespace
}  // namespace tasd
