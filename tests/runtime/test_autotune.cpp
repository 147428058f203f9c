// Per-layer kernel autotuning (ISSUE 10 tentpole): compile() under
// KernelPolicy::kAutotune micro-benches every registered candidate per
// layer and binds the winner. The measurement-override hook
// (set_autotune_timer) replaces the wall clock with injected timings so
// the selection logic is testable deterministically: fixed fake timings
// must yield a fixed binding, run after run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "runtime/autotune.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

/// RAII: install a fake timer for one test, restore the wall clock on
/// exit so sibling tests (and wall-clock autotune tests) are unaffected.
struct TimerGuard {
  explicit TimerGuard(TuneTimer hook) { set_autotune_timer(std::move(hook)); }
  ~TimerGuard() { set_autotune_timer({}); }
};

dnn::NetworkWorkload two_layer_net() {
  dnn::NetworkWorkload net;
  net.name = "tune-net";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 24;
  l1.k = 48;
  l1.n = 16;
  l1.weight_density = 0.3;
  l1.weight_seed = 7501;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_seed = 7502;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

CompileOptions autotune_opt() {
  CompileOptions opt;
  opt.kernel_policy = KernelPolicy::kAutotune;
  opt.measure.repeats = 2;  // keep the wall-clock path cheap
  return opt;
}

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(Autotune, FixedFakeTimingsYieldAFixedBinding) {
  // The fake timer prefers a different kernel on each layer and, on the
  // dense layer, on each workload: the nm layer "a" gets "serial" for
  // both, the dense layer "b" gets "tiled-serial" single and "reference"
  // batch — deliberately NOT the static best_*() picks, so a pass proves
  // the injected measurements (and nothing else) drove the binding.
  const TimerGuard guard([](const TuneMeasurement& m) {
    if (m.layer == "a") return m.kernel == "serial" ? 1.0 : 9.0;
    return m.kernel == (m.batch ? "reference" : "tiled-serial") ? 1.0 : 9.0;
  });
  for (int round = 0; round < 2; ++round) {
    const auto engine = compile(two_layer_net(), mixed_configs(),
                                autotune_opt());
    ASSERT_TRUE(engine.tuning().has_value()) << "round " << round;
    const TuningResult& t = *engine.tuning();
    EXPECT_EQ(t.host_signature, cpu_signature());
    ASSERT_EQ(t.layers.size(), 2U);
    EXPECT_EQ(t.find("a")->chosen_single, "serial");
    EXPECT_EQ(t.find("a")->chosen_batch, "serial");
    EXPECT_EQ(t.find("b")->chosen_single, "tiled-serial");
    EXPECT_EQ(t.find("b")->chosen_batch, "reference");
    // The binding is per layer and per workload.
    EXPECT_EQ(engine.layer(0).kernel, "serial");
    EXPECT_EQ(engine.layer(0).batch_kernel, "serial");
    EXPECT_EQ(engine.layer(1).kernel, "tiled-serial");
    EXPECT_EQ(engine.layer(1).batch_kernel, "reference");
    // Both candidate tables cover the layer's whole slot and record the
    // injected timings verbatim.
    for (const LayerTuning& lt : t.layers) {
      const auto names = lt.nm ? GemmDispatch::instance().nm_kernels()
                               : GemmDispatch::instance().dense_kernels();
      for (const auto* table : {&lt.single, &lt.batch}) {
        ASSERT_EQ(table->size(), names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
          EXPECT_EQ((*table)[i].kernel, names[i]);
          EXPECT_TRUE((*table)[i].ms == 1.0 || (*table)[i].ms == 9.0);
        }
      }
    }
  }
}

TEST(Autotune, PerLayerWinnersDivergeWhenTimingsDo) {
  // Two dense layers, opposite preferences: the binding must differ per
  // layer even though both layers share one network-wide policy.
  auto net = two_layer_net();
  const std::vector<std::optional<TasdConfig>> both_dense = {std::nullopt,
                                                             std::nullopt};
  const TimerGuard guard([](const TuneMeasurement& m) {
    const bool fast = m.layer == "a" ? m.kernel == "tiled-serial"
                                     : m.kernel == "reference";
    return fast ? 0.5 : 2.0;
  });
  const auto engine = compile(net, both_dense, autotune_opt());
  EXPECT_EQ(engine.layer(0).kernel, "tiled-serial");
  EXPECT_EQ(engine.layer(1).kernel, "reference");
}

TEST(Autotune, TunedRunMatchesTheStaticallyPinnedKernelBitwise) {
  const auto net = two_layer_net();
  const TimerGuard guard([](const TuneMeasurement& m) {
    return m.kernel == (m.nm ? "serial" : "tiled-serial") ? 1.0 : 9.0;
  });
  const auto tuned = compile(net, mixed_configs(), autotune_opt());
  CompileOptions pin;
  pin.nm_kernel = "serial";
  pin.dense_kernel = "tiled-serial";
  const auto pinned = compile(net, mixed_configs(), pin);
  Rng rng(7600);
  const MatrixF b = random_dense(net.layers[0].k, 9, Dist::kNormalStd1, rng);
  std::vector<MatrixF> bs;
  for (const Index cols : {3u, 0u, 7u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));
  for (std::size_t layer = 0; layer < 2; ++layer) {
    EXPECT_EQ(tuned.run(layer, b), pinned.run(layer, b)) << layer;
    const auto tb = tuned.run_batch(layer, bs);
    const auto pb = pinned.run_batch(layer, bs);
    for (std::size_t q = 0; q < bs.size(); ++q)
      EXPECT_EQ(tb[q], pb[q]) << layer << "/" << q;
  }
}

TEST(Autotune, WallClockTuningChoosesTheTableMinimum) {
  // No hook installed: real micro-bench timings. The absolute numbers
  // are noisy on CI, but the invariants are not — the chosen kernel is
  // the argmin of its own candidate table, every candidate is a
  // registered name, timings are positive, and the static binding
  // (best_*()) is one of the candidates. The first and the last make
  // "chosen never slower than static" hold by construction.
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    const auto find_kernel = [](const std::vector<TuneCandidate>& table,
                                const std::string& kernel) {
      return std::find_if(
          table.begin(), table.end(),
          [&](const TuneCandidate& c) { return c.kernel == kernel; });
    };
    const auto& d = GemmDispatch::instance();
    const auto registry = lt.nm ? d.nm_kernels() : d.dense_kernels();
    const std::string static_choice = lt.nm ? d.best_nm() : d.best_dense();
    const auto check = [&](const std::vector<TuneCandidate>& table,
                           const std::string& chosen) {
      ASSERT_FALSE(table.empty());
      double best = table.front().ms;
      for (const TuneCandidate& c : table) {
        EXPECT_GT(c.ms, 0.0) << c.kernel;
        EXPECT_TRUE(contains(registry, c.kernel)) << c.kernel;
        best = std::min(best, c.ms);
      }
      const auto it = find_kernel(table, chosen);
      ASSERT_NE(it, table.end()) << chosen;
      EXPECT_EQ(it->ms, best) << lt.layer;
      const auto st = find_kernel(table, static_choice);
      ASSERT_NE(st, table.end()) << lt.layer << ": " << static_choice;
      EXPECT_LE(it->ms, st->ms) << lt.layer;
    };
    check(lt.single, lt.chosen_single);
    check(lt.batch, lt.chosen_batch);
  }
}

TEST(Autotune, StaticPolicyCompilesWithoutTuning) {
  const auto engine = compile(two_layer_net(), mixed_configs(), {});
  EXPECT_FALSE(engine.tuning().has_value());
}

TEST(Autotune, ApplyTuningRejectsKernelsNoLongerRegistered) {
  // Upgrade path: an artifact tuned on this host by an older build
  // carries a matching signature but may name kernels that build
  // registered and this one does not — the removed 512-bit family, and
  // the removed batch slot whose kernel every tuned layer of such a
  // build names as its batch choice. apply_tuning must refuse the whole
  // result and leave the static binding in place, so load_artifact
  // falls back to best_*() re-resolution. The removed names are built
  // from pieces so a source search for them finds only live code.
  const TimerGuard guard([](const TuneMeasurement& m) {
    return m.kernel == (m.nm ? "serial" : "tiled-serial") ? 1.0 : 9.0;
  });
  const TuningResult valid =
      *compile(two_layer_net(), mixed_configs(), autotune_opt()).tuning();
  ASSERT_EQ(valid.host_signature, cpu_signature());
  const std::string wide = std::to_string(512);
  const std::string batch = "batch-";

  struct Removed {
    bool nm;          ///< stale the N:M layer "a" (else dense layer "b")
    bool batch_slot;  ///< stale the batch choice (else the single one)
    std::string name;
  };
  const std::vector<Removed> removed = {
      {true, false, "nm-avx" + wide},
      {false, true, "dense-" + batch + "avx" + wide},
      {true, true, batch + "packed"},
      {false, true, batch + "loop"},
      {false, true, "dense-" + batch + "avx2"},
      {true, true, "nm-" + batch + "avx2"},
  };
  for (const Removed& r : removed) {
    auto engine = compile(two_layer_net(), mixed_configs(), {});
    TuningResult stale = valid;
    for (LayerTuning& lt : stale.layers) {
      if (lt.nm != r.nm) continue;
      // As the older build recorded it: chosen, and in its table.
      (r.batch_slot ? lt.batch : lt.single).push_back({r.name, 0.5});
      (r.batch_slot ? lt.chosen_batch : lt.chosen_single) = r.name;
    }
    std::vector<std::pair<std::string, std::string>> before;
    for (std::size_t i = 0; i < engine.layer_count(); ++i)
      before.emplace_back(engine.layer(i).kernel, engine.layer(i).batch_kernel);

    EXPECT_FALSE(detail::apply_tuning(engine, stale)) << r.name;
    EXPECT_FALSE(engine.tuning().has_value());
    for (std::size_t i = 0; i < engine.layer_count(); ++i) {
      EXPECT_EQ(engine.layer(i).kernel, before[i].first) << r.name << " " << i;
      EXPECT_EQ(engine.layer(i).batch_kernel, before[i].second)
          << r.name << " " << i;
    }
    // Control: the same result with registered names does transfer.
    EXPECT_TRUE(detail::apply_tuning(engine, valid));
    EXPECT_EQ(engine.layer(0).kernel, "serial");
    EXPECT_EQ(engine.layer(0).batch_kernel, "serial");
  }
}

TEST(Autotune, CandidatePoolHonorsTheSimdDisableFlags) {
  // Forced-fallback coverage: under TASD_DISABLE_AVX2=1 (the scalar CI
  // leg) no avx kernel may appear in any table. On an AVX2 host this
  // asserts the complement — the SIMD family is in the pool and
  // autotune considered it.
  const TimerGuard guard([](const TuneMeasurement&) { return 1.0; });
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    for (const auto* table : {&lt.single, &lt.batch}) {
      const bool has2 = std::any_of(
          table->begin(), table->end(), [](const TuneCandidate& c) {
            return c.kernel.find("avx2") != std::string::npos;
          });
      EXPECT_EQ(has2, avx2_available()) << lt.layer;
    }
  }
}

}  // namespace
}  // namespace tasd::rt
