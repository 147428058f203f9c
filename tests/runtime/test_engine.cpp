// Measurement-surface tests of the compile-once/execute-many API: the
// per-layer measure() report, the Fig. 16 conversion ranking, and the
// serving-throughput sweep (the deprecated one-shot wrappers these tests
// once drove were removed; CompiledNetwork is the only surface).
#include "runtime/compiled_network.hpp"

#include <gtest/gtest.h>

#include "core/plan_cache.hpp"

namespace tasd::rt {
namespace {

/// Small synthetic workload: two layers, generous sparsity.
dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 64;
  l1.k = 256;
  l1.n = 64;
  l1.weight_density = 0.1;
  l1.weight_seed = 5;
  dnn::GemmWorkload l2;
  l2.name = "b";
  l2.m = 128;
  l2.k = 128;
  l2.n = 64;
  l2.weight_density = 0.1;
  l2.weight_seed = 6;
  net.layers = {l1, l2};
  return net;
}

TEST(Engine, MeasuresAllLayers) {
  const auto net = tiny_net();
  CompileOptions opt;
  opt.n_divisor = 1;
  opt.measure.repeats = 1;
  const std::vector<std::optional<TasdConfig>> cfgs{
      TasdConfig::parse("2:4"), std::nullopt};
  const auto timings = compile(net, cfgs, opt).measure();
  ASSERT_EQ(timings.size(), 2u);
  EXPECT_GT(timings[0].dense_ms, 0.0);
  EXPECT_GT(timings[0].tasd_ms, 0.0);
  EXPECT_TRUE(timings[0].config.has_value());
  EXPECT_FALSE(timings[1].config.has_value());
  EXPECT_EQ(timings[1].tasd_ms, 0.0);
}

TEST(Engine, NetworkLatencyComposition) {
  std::vector<LayerTiming> timings(3);
  for (std::size_t i = 0; i < 3; ++i) {
    timings[i].dense_ms = 10.0;
    timings[i].tasd_ms = 6.0;
    timings[i].config = TasdConfig::parse("2:4");
  }
  const auto order = conversion_order(timings);
  EXPECT_DOUBLE_EQ(network_latency_ms(timings, order, 0), 30.0);
  EXPECT_DOUBLE_EQ(network_latency_ms(timings, order, 2), 22.0);
  EXPECT_DOUBLE_EQ(network_latency_ms(timings, order, 3), 18.0);
  EXPECT_THROW(network_latency_ms(timings, order, 4), Error);
}

TEST(Engine, NetworkLatencyRejectsOutOfRangeOrderIndex) {
  std::vector<LayerTiming> timings(2);
  for (auto& t : timings) t.dense_ms = 10.0;
  EXPECT_THROW(network_latency_ms(timings, {0, 2}, 2), Error);
  EXPECT_THROW(network_latency_ms(timings, {5}, 1), Error);
  // Indices past num_converted are never read.
  EXPECT_DOUBLE_EQ(network_latency_ms(timings, {1, 7}, 1), 20.0);
}

TEST(Engine, ConversionOrderPrefersBiggestSavings) {
  std::vector<LayerTiming> timings(3);
  timings[0].dense_ms = 10.0;
  timings[0].tasd_ms = 9.0;
  timings[0].config = TasdConfig::parse("2:4");
  timings[1].dense_ms = 20.0;
  timings[1].tasd_ms = 10.0;
  timings[1].config = TasdConfig::parse("2:4");
  timings[2].dense_ms = 5.0;  // no config: never converted
  const auto order = conversion_order(timings);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 2u);
}

TEST(Engine, SecondMeasurementPassDecomposesNothing) {
  const auto net = tiny_net();
  CompileOptions opt;
  opt.n_divisor = 4;
  opt.measure.repeats = 1;
  const std::vector<std::optional<TasdConfig>> cfgs{
      TasdConfig::parse("2:4"), TasdConfig::parse("2:4")};

  (void)compile(net, cfgs, opt);  // warm the plan cache
  const auto before = plan_cache().stats();
  (void)compile(net, cfgs, opt);
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "a second pass over the same weights must perform zero "
         "additional decompositions";
  EXPECT_GE(after.hits, before.hits + 2);
}

TEST(Engine, ExplicitThreadCountMatchesDefaultResults) {
  // Timings differ with the thread count; measured layer metadata and
  // the kept-non-zero fraction of the kernel-visible plan must not.
  const auto net = tiny_net();
  CompileOptions serial;
  serial.n_divisor = 4;
  serial.measure.repeats = 1;
  serial.measure.num_threads = 1;
  CompileOptions parallel = serial;
  parallel.measure.num_threads = 4;
  const std::vector<std::optional<TasdConfig>> cfgs{
      TasdConfig::parse("2:4"), TasdConfig::parse("1:4")};
  const auto a = compile(net, cfgs, serial);
  const auto b = compile(net, cfgs, parallel);
  const auto ta = a.measure();
  const auto tb = b.measure();
  ASSERT_EQ(ta.size(), tb.size());
  const auto kept = [](const CompiledNetwork::BoundLayer& l) {
    return static_cast<double>(l.plan->nnz()) / static_cast<double>(l.m * l.k);
  };
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].n, tb[i].n);
    EXPECT_EQ(ta[i].config, tb[i].config);
    EXPECT_DOUBLE_EQ(kept(a.layer(i)), kept(b.layer(i)));
  }
}

// --- Fig. 16 conversion-ranking regressions: a configured layer whose
// TASD series measured *slower* than dense must never be ranked as a
// beneficial conversion, and converting it must never worsen latency
// (the deployment engineer keeps the dense kernel).

/// Three layers: one big winner, one unconfigured, one configured loser.
std::vector<LayerTiming> timings_with_slower_than_dense_layer() {
  std::vector<LayerTiming> timings(3);
  timings[0].dense_ms = 10.0;
  timings[0].tasd_ms = 10.5;  // TASD measured slower than dense
  timings[0].config = TasdConfig::parse("2:4");
  timings[1].dense_ms = 5.0;  // no config: not convertible
  timings[2].dense_ms = 20.0;
  timings[2].tasd_ms = 12.0;
  timings[2].config = TasdConfig::parse("2:4");
  return timings;
}

TEST(Engine, BestMsKeepsDenseWhenTasdSlower) {
  const auto timings = timings_with_slower_than_dense_layer();
  EXPECT_DOUBLE_EQ(timings[0].best_ms(), 10.0);  // min, not tasd_ms
  EXPECT_DOUBLE_EQ(timings[1].best_ms(), 5.0);
  EXPECT_DOUBLE_EQ(timings[2].best_ms(), 12.0);
  EXPECT_DOUBLE_EQ(timings[0].conversion_savings_ms(), 0.0);
  EXPECT_DOUBLE_EQ(timings[2].conversion_savings_ms(), 8.0);
}

TEST(Engine, ConversionOrderNeverRanksLosingLayersAsBeneficial) {
  const auto timings = timings_with_slower_than_dense_layer();
  const auto order = conversion_order(timings);
  // The winner first; the -1.0 sentinel bug ranked the losing layer 0
  // (savings -0.5) ahead of the unconfigured layer 1.
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 0u);  // zero savings, index tie-break
  EXPECT_EQ(order[2], 1u);
}

TEST(Engine, NetworkLatencyMonotoneWithSlowerThanDenseLayer) {
  const auto timings = timings_with_slower_than_dense_layer();
  const auto order = conversion_order(timings);
  double prev = network_latency_ms(timings, order, 0);
  EXPECT_DOUBLE_EQ(prev, 35.0);
  for (std::size_t k = 1; k <= timings.size(); ++k) {
    const double cur = network_latency_ms(timings, order, k);
    EXPECT_LE(cur, prev) << "converting layer " << order[k - 1]
                         << " must never worsen latency";
    prev = cur;
  }
  // Converting everything equals converting only the beneficial prefix.
  EXPECT_DOUBLE_EQ(network_latency_ms(timings, order, 3), 27.0);
}

TEST(Engine, NDivisorRoundsAndSkipsTinyLayers) {
  auto net = tiny_net();
  net.layers[0].n = 6;    // < n_divisor: must keep full N
  net.layers[1].n = 100;  // 100/8 = 12.5: must round to 13, not 12
  CompileOptions opt;
  opt.n_divisor = 8;
  opt.measure.repeats = 1;
  const auto timings =
      compile(net, {std::nullopt, std::nullopt}, opt).measure();
  EXPECT_EQ(timings[0].n, 6u);
  EXPECT_EQ(timings[1].n, 13u);

  // No cliff at n == n_divisor: a layer one position wider than a
  // kept-at-full-N tiny layer must not measure narrower than it.
  net.layers[0].n = 8;   // == n_divisor: floor keeps it at 7, not 1
  net.layers[1].n = 7;   // < n_divisor: kept at full N
  const auto edge =
      compile(net, {std::nullopt, std::nullopt}, opt).measure();
  EXPECT_EQ(edge[0].n, 7u);
  EXPECT_EQ(edge[1].n, 7u);
}

TEST(Engine, MonotoneSpeedupInConvertedLayers) {
  const auto net = tiny_net();
  CompileOptions opt;
  opt.n_divisor = 1;
  opt.measure.repeats = 2;
  const std::vector<std::optional<TasdConfig>> cfgs{
      TasdConfig::parse("1:4"), TasdConfig::parse("1:4")};
  const auto timings = compile(net, cfgs, opt).measure();
  const auto order = conversion_order(timings);
  double prev = network_latency_ms(timings, order, 0);
  for (std::size_t k = 1; k <= timings.size(); ++k) {
    const double cur = network_latency_ms(timings, order, k);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

}  // namespace
}  // namespace tasd::rt
