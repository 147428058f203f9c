// Tests for the MobileNet-like (ReLU6) family.
#include <gtest/gtest.h>

#include "dnn/builders.hpp"
#include "dnn/calib.hpp"
#include "dnn/metrics.hpp"

namespace tasd::dnn {
namespace {

ConvNetOptions tiny() {
  ConvNetOptions o;
  o.input_hw = 8;
  o.width_mult = 0.25;
  o.num_classes = 10;
  return o;
}

TEST(MobileNet, ForwardProducesLogits) {
  Model m = make_mobilenet(tiny());
  const EvalSet eval = EvalSet::images(4, 8, 3, 811);
  const auto labels = predict(m, eval);
  EXPECT_EQ(labels.size(), 4u);
}

TEST(MobileNet, Relu6ActivationsAreSparseAndClipped) {
  Model m = make_mobilenet(tiny());
  const EvalSet eval = EvalSet::images(16, 8, 3, 812);
  (void)predict(m, eval);
  // ReLU6 induces real zeros: mid-network layers see sparse inputs.
  Index sparse_inputs = 0;
  for (auto* l : m.gemm_layers()) {
    if (l->stats().forward_count > 0 && l->stats().raw_input_density < 0.9)
      ++sparse_inputs;
  }
  EXPECT_GT(sparse_inputs, 2u);
}

TEST(MobileNet, CalibrationSeesReluFamilySparsity) {
  Model m = make_mobilenet(tiny());
  const EvalSet calib = EvalSet::images(16, 8, 3, 813);
  const auto stats = collect_calibration(m, calib);
  Index induces = 0;
  for (const auto& s : stats)
    if (s.act_induces_sparsity) ++induces;
  EXPECT_GT(induces, stats.size() / 3);
}

TEST(MobileNet, DeterministicConstruction) {
  Model a = make_mobilenet(tiny());
  Model b = make_mobilenet(tiny());
  const EvalSet eval = EvalSet::images(4, 8, 3, 814);
  EXPECT_EQ(predict(a, eval), predict(b, eval));
}

TEST(MobileNet, HeadExcludedFromTasdA) {
  Model m = make_mobilenet(tiny());
  for (auto* l : m.gemm_layers()) {
    if (l->name().rfind("head", 0) == 0) {
      EXPECT_FALSE(l->allow_tasd_a());
    }
  }
}

}  // namespace
}  // namespace tasd::dnn
