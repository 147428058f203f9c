// Cross-module invariants: the same TASD decision seen by the functional
// model, the perf model, and the runtime kernels must agree on the work
// it implies.
#include <gtest/gtest.h>

#include "accel/perf_model.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "core/tasd_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd {
namespace {

TEST(CrossModel, SlotMacsAgreeBetweenPerfModelAndConfig) {
  // Perf model's slot MACs == dense MACs x series slot density.
  dnn::GemmWorkload l;
  l.m = 128;
  l.k = 512;
  l.n = 64;
  l.weight_density = 0.1;
  l.act_density = 0.5;
  const auto arch = accel::ArchConfig::ttc_vegeta_m8();
  for (const char* cfg : {"1:8", "2:8", "4:8", "4:8+1:8", "4:8+2:8"}) {
    const auto series = TasdConfig::parse(cfg);
    accel::LayerExecution exec{l, series, {}, {}};
    const auto sim = simulate_layer(arch, exec);
    const double dense = static_cast<double>(l.macs());
    EXPECT_NEAR(sim.slot_macs / dense, series.max_density(), 0.01) << cfg;
  }
}

TEST(CrossModel, RuntimeNnzMatchesFunctionalKeptNnz) {
  // The compressed runtime plan stores exactly the elements the
  // functional decomposition kept.
  Rng rng(7201);
  const MatrixF w = random_unstructured(64, 256, 0.1, Dist::kNormalStd1, rng);
  for (const char* cfg : {"1:8", "2:8", "4:8+1:8"}) {
    const auto config = TasdConfig::parse(cfg);
    const auto d = decompose(w, config);
    EXPECT_EQ(build_plan(w, config).nnz(), w.nnz() - d.residual.nnz()) << cfg;
  }
}

TEST(CrossModel, MacCountConsistency) {
  // tasd_gemm_macs (functional) == runtime nnz * N.
  Rng rng(7202);
  const MatrixF w = random_unstructured(32, 128, 0.2, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const auto d = decompose(w, cfg);
  EXPECT_EQ(tasd_gemm_macs(d, 16), build_plan(w, cfg).nnz() * 16);
}

TEST(CrossModel, WeightKeptFractionFeedsEnergyGating) {
  // Passing the measured kept fraction into the perf model must scale
  // MAC energy linearly.
  dnn::GemmWorkload l;
  l.m = 64;
  l.k = 256;
  l.n = 32;
  l.weight_density = 0.2;
  l.act_density = 1.0;
  const auto arch = accel::ArchConfig::ttc_vegeta_m8();
  accel::LayerExecution half{l, TasdConfig::parse("4:8"), {}, 0.10};
  accel::LayerExecution tenth{l, TasdConfig::parse("4:8"), {}, 0.02};
  const double e_half =
      simulate_layer(arch, half)
          .energy_pj[static_cast<std::size_t>(accel::Component::kMac)];
  const double e_tenth =
      simulate_layer(arch, tenth)
          .energy_pj[static_cast<std::size_t>(accel::Component::kMac)];
  EXPECT_NEAR(e_half / e_tenth, 5.0, 1e-6);
}

}  // namespace
}  // namespace tasd
