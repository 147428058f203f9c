#include "dnn/workloads.hpp"

#include <gtest/gtest.h>

#include "dnn/layer_binding.hpp"

namespace tasd::dnn {
namespace {

TEST(Workloads, ResNet50ShapeInventory) {
  const auto net = resnet50_workload(false, 42);
  // 1 stem + 16 bottlenecks*3 convs + 4 projections + 1 fc = 54 layers.
  EXPECT_EQ(net.layers.size(), 54u);
  // Full-scale ResNet-50 at 224x224 is ~4.1 GMACs and ~25.5 M params.
  EXPECT_NEAR(static_cast<double>(net.total_macs()) / 1e9, 4.1, 0.5);
  EXPECT_NEAR(static_cast<double>(net.total_params()) / 1e6, 25.5, 3.0);
}

TEST(Workloads, Table4RepresentativeLayersExist) {
  const auto t4 = table4_layers();
  ASSERT_EQ(t4.size(), 12u);
  // No fallback "(synthetic)" entries: every Table 4 shape must be found
  // in the generated network stacks.
  for (const auto& l : t4)
    EXPECT_EQ(l.name.find("synthetic"), std::string::npos) << l.name;
  // Dense RN50 L1 per the paper: M784-N128-K1152 in (positions, out,
  // reduction) convention = ours (m=128, k=1152, n=784).
  EXPECT_EQ(t4[0].m, 128u);
  EXPECT_EQ(t4[0].k, 1152u);
  EXPECT_EQ(t4[0].n, 784u);
}

TEST(Workloads, BertShapes) {
  const auto net = bert_workload(false, 42);
  // 6 distinct encoder shapes + head.
  EXPECT_EQ(net.layers.size(), 7u);
  // BERT-base ~ 85 M encoder params (12 x 7.1 M).
  EXPECT_NEAR(static_cast<double>(net.total_params()) / 1e6, 85.0, 5.0);
  // fc1 is 3072x768 with 128 tokens.
  bool found_fc1 = false;
  for (const auto& l : net.layers)
    if (l.m == 3072 && l.k == 768 && l.n == 128) found_fc1 = true;
  EXPECT_TRUE(found_fc1);
}

TEST(Workloads, SparseVariantHasReducedWeightDensity) {
  const auto dense = resnet50_workload(false, 42);
  const auto sparse = resnet50_workload(true, 42);
  ASSERT_EQ(dense.layers.size(), sparse.layers.size());
  for (std::size_t i = 0; i < dense.layers.size(); ++i) {
    EXPECT_DOUBLE_EQ(dense.layers[i].weight_density, 1.0);
    EXPECT_LT(sparse.layers[i].weight_density, 0.6);
  }
}

TEST(Workloads, ReluVsGeluActivationFields) {
  const auto rn = resnet50_workload(false, 42);
  for (std::size_t i = 1; i < rn.layers.size(); ++i) {
    EXPECT_TRUE(rn.layers[i].act_relu);
    EXPECT_LT(rn.layers[i].act_density, 1.0);
  }
  const auto bert = bert_workload(false, 42);
  for (const auto& l : bert.layers) {
    EXPECT_FALSE(l.act_relu);
    EXPECT_DOUBLE_EQ(l.act_density, 1.0);
    EXPECT_LT(l.act_pseudo_density, 0.9);
  }
}

TEST(Workloads, BertTasdAEligibilityMatchesPaper) {
  // Paper §4.3 / Fig. 8: only the MLP FCs are TASD-A targets; fc2's
  // input (GELU output) is the magnitude-skewed one.
  const auto bert = bert_workload(false, 42);
  for (const auto& l : bert.layers) {
    if (l.name == "enc.q" || l.name == "enc.k" || l.name == "enc.v" ||
        l.name == "enc.attn_out") {
      EXPECT_FALSE(l.tasd_a_eligible) << l.name;
    }
    if (l.name == "enc.fc1" || l.name == "enc.fc2") {
      EXPECT_TRUE(l.tasd_a_eligible) << l.name;
    }
  }
  double fc2_pseudo = 1.0, fc1_pseudo = 1.0;
  for (const auto& l : bert.layers) {
    if (l.name == "enc.fc2") fc2_pseudo = l.act_pseudo_density;
    if (l.name == "enc.fc1") fc1_pseudo = l.act_pseudo_density;
  }
  EXPECT_LT(fc2_pseudo, fc1_pseudo);
}

TEST(Workloads, MaterializeWeightMatchesDeclaredDensity) {
  const auto net = resnet50_workload(true, 42);
  const auto& layer = net.layers[10];
  const MatrixF w = materialize_weight(layer);
  EXPECT_EQ(w.rows(), layer.m);
  EXPECT_EQ(w.cols(), layer.k);
  EXPECT_NEAR(1.0 - w.sparsity(), layer.weight_density, 0.01);
}

TEST(Workloads, MaterializeWeightDeterministic) {
  const auto net = resnet50_workload(true, 42);
  const MatrixF a = materialize_weight(net.layers[5]);
  const MatrixF b = materialize_weight(net.layers[5]);
  EXPECT_EQ(a, b);
}

TEST(Workloads, BindLayersKeepsLayerOrderAndWeights) {
  // bind_layers materializes layers in parallel; every slot must still
  // hold its own layer's name, width, config and seeded weight.
  const auto net = decode_step_workload(128, 96, true, 9);
  std::vector<std::optional<TasdConfig>> configs(net.layers.size());
  configs[0] = TasdConfig::parse("2:4");
  configs[3] = TasdConfig::parse("1:4");
  const auto bound = bind_layers(net, configs);
  ASSERT_EQ(bound.size(), net.layers.size());
  for (std::size_t i = 0; i < bound.size(); ++i) {
    EXPECT_EQ(bound[i].name, net.layers[i].name);
    EXPECT_EQ(bound[i].positions, net.layers[i].n);
    EXPECT_EQ(bound[i].config, configs[i]);
    EXPECT_EQ(bound[i].weight, materialize_weight(net.layers[i])) << i;
  }
  EXPECT_THROW(bind_layers(net, {}), Error);
}

TEST(Workloads, ResNet34SmallerThanResNet50) {
  const auto rn34 = resnet34_workload(false, 1);
  const auto rn50 = resnet50_workload(false, 1);
  EXPECT_LT(rn34.total_macs(), rn50.total_macs());
  // 1 stem + 16 basic blocks * 2 convs + 3 projections + 1 fc = 37.
  EXPECT_EQ(rn34.layers.size(), 37u);
}

}  // namespace
}  // namespace tasd::dnn
