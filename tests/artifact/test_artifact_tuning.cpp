// Tuning-section round-trip, host-signature policy, and the fuzz-style
// corruption matrix for TASDART1 files (ISSUE 10): a tuned artifact
// restores its per-layer binding verbatim on the measuring host, falls
// back to best_*() re-resolution (never a stale binding) on any other
// host, and no byte flip anywhere in the file — header, TOC, sections,
// tuning payload — can crash the loader or silently mis-bind kernels.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "artifact/format.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "runtime/autotune.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"
#include "tensor/io.hpp"

namespace tasd::rt {
namespace {

struct TimerGuard {
  explicit TimerGuard(TuneTimer hook) { set_autotune_timer(std::move(hook)); }
  ~TimerGuard() { set_autotune_timer({}); }
};

struct SignatureGuard {
  explicit SignatureGuard(const std::string& sig) {
    setenv("TASD_CPU_SIGNATURE", sig.c_str(), 1);
  }
  ~SignatureGuard() { unsetenv("TASD_CPU_SIGNATURE"); }
};

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

/// Small on purpose: the corruption matrix loads the file once per byte,
/// so the whole artifact should stay a few KiB.
dnn::NetworkWorkload small_net() {
  dnn::NetworkWorkload net;
  net.name = "tuned-artifact";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 8;
  l1.k = 16;
  l1.n = 8;
  l1.weight_density = 0.4;
  l1.weight_seed = 9301;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_density = 1.0;
  l2.weight_seed = 9302;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> small_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

/// Deterministic non-default winners, so "binding restored" is
/// distinguishable from "binding re-resolved": the serial kernels are
/// never what best_*() picks.
TuneTimer slow_is_fast() {
  return [](const TuneMeasurement& m) {
    return m.kernel == (m.nm ? "serial" : "tiled-serial") ? 1.0 : 9.0;
  };
}

CompileOptions tuned_opt() {
  CompileOptions opt;
  opt.kernel_policy = KernelPolicy::kAutotune;
  opt.measure.use_plan_cache = false;
  return opt;
}

template <typename Fn>
std::optional<Error::Code> failure_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(ArtifactTuning, TunedRoundTripRestoresTheBindingWithZeroDecompositions) {
  const TimerGuard timer(slow_is_fast());
  TempPath tmp("tasd_tuned_roundtrip.tasdart");
  const auto engine = compile(small_net(), small_configs(), tuned_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  save_artifact(engine, tmp.path);

  const auto info = inspect_artifact(tmp.path);
  EXPECT_TRUE(info.has_tuning);
  EXPECT_GT(info.tuning_bytes, 0u);

  plan_cache().clear();
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, {});  // kStatic options
  EXPECT_EQ(plan_cache().stats().decompositions, before.decompositions);

  // The binding came back verbatim — tuning() populated, per-layer
  // kernels equal, candidate tables (f64 timings included) bit-exact.
  ASSERT_TRUE(loaded.tuning().has_value());
  const TuningResult& got = *loaded.tuning();
  const TuningResult& want = *engine.tuning();
  EXPECT_EQ(got.host_signature, want.host_signature);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < want.layers.size(); ++i) {
    EXPECT_EQ(got.layers[i].layer, want.layers[i].layer);
    EXPECT_EQ(got.layers[i].nm, want.layers[i].nm);
    EXPECT_EQ(got.layers[i].chosen_single, want.layers[i].chosen_single);
    EXPECT_EQ(got.layers[i].chosen_batch, want.layers[i].chosen_batch);
    ASSERT_EQ(got.layers[i].single.size(), want.layers[i].single.size());
    for (std::size_t c = 0; c < want.layers[i].single.size(); ++c) {
      EXPECT_EQ(got.layers[i].single[c].kernel,
                want.layers[i].single[c].kernel);
      EXPECT_EQ(got.layers[i].single[c].ms, want.layers[i].single[c].ms);
    }
  }
  for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
    EXPECT_EQ(loaded.layer(i).kernel, engine.layer(i).kernel) << i;
    EXPECT_EQ(loaded.layer(i).batch_kernel, engine.layer(i).batch_kernel) << i;
  }
  // And it executes with the restored (non-default) kernels, bitwise.
  Rng rng(9310);
  const MatrixF b = random_dense(16, 5, Dist::kNormalStd1, rng);
  EXPECT_EQ(loaded.run(0, b), engine.run(0, b));
  EXPECT_EQ(loaded.run(1, b), engine.run(1, b));
}

TEST(ArtifactTuning, StaticArtifactCarriesNoTuningSection) {
  TempPath tmp("tasd_static.tasdart");
  CompileOptions opt;
  opt.measure.use_plan_cache = false;
  save_artifact(compile(small_net(), small_configs(), opt), tmp.path);
  const auto info = inspect_artifact(tmp.path);
  EXPECT_FALSE(info.has_tuning);
  EXPECT_EQ(info.tuning_bytes, 0u);
  EXPECT_FALSE(load_artifact(tmp.path, opt).tuning().has_value());
}

TEST(ArtifactTuning, ForeignHostSignatureFallsBackToReResolution) {
  const TimerGuard timer(slow_is_fast());
  TempPath tmp("tasd_foreign.tasdart");
  save_artifact(compile(small_net(), small_configs(), tuned_opt()), tmp.path);

  // Load "on another machine": the stored binding must NOT transfer;
  // every layer re-resolves through the static best_*() chain exactly
  // as an untuned artifact would.
  const SignatureGuard sig("other-box|avx2=0");
  CompileOptions opt;
  opt.measure.use_plan_cache = false;
  const auto loaded = load_artifact(tmp.path, opt);
  EXPECT_FALSE(loaded.tuning().has_value());
  const auto& dispatch = GemmDispatch::instance();
  for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
    const bool nm = loaded.layer(i).series.has_value();
    EXPECT_EQ(loaded.layer(i).kernel,
              nm ? dispatch.best_nm() : dispatch.best_dense())
        << "stale foreign binding on layer " << i;
    EXPECT_EQ(loaded.layer(i).batch_kernel, loaded.layer(i).kernel);
  }
}

TEST(ArtifactTuning, ForeignHostWithAutotunePolicyReTunes) {
  const TimerGuard timer(slow_is_fast());
  TempPath tmp("tasd_retune.tasdart");
  save_artifact(compile(small_net(), small_configs(), tuned_opt()), tmp.path);

  const SignatureGuard sig("other-box|avx2=0");
  const auto loaded = load_artifact(tmp.path, tuned_opt());
  ASSERT_TRUE(loaded.tuning().has_value());
  // Fresh measurement under the new identity, not the stored result.
  EXPECT_EQ(loaded.tuning()->host_signature, "other-box|avx2=0");
}

TEST(ArtifactTuning, MatchingHostRestoreSkipsReMeasurement) {
  // Loading with kAutotune on the measuring host must restore, not
  // re-tune: the hook counts invocations.
  std::size_t calls = 0;
  {
    const TimerGuard timer(slow_is_fast());
    TempPath tmp("tasd_norerun.tasdart");
    save_artifact(compile(small_net(), small_configs(), tuned_opt()),
                  tmp.path);
    set_autotune_timer([&calls](const TuneMeasurement&) {
      ++calls;
      return 1.0;
    });
    const auto loaded = load_artifact(tmp.path, tuned_opt());
    EXPECT_TRUE(loaded.tuning().has_value());
  }
  EXPECT_EQ(calls, 0u) << "a transferring binding must not re-measure";
}

TEST(ArtifactTuning, EveryByteFlipFailsTypedOrLoadsIdentically) {
  // The fuzz matrix: XOR one byte at a time across the ENTIRE file —
  // header (incl. the tuning crc/offset/size fields), name, TOC,
  // section payloads, alignment padding, tuning payload. Each mutation
  // must either throw a typed Error (kFailedPrecondition when the file
  // no longer identifies as ours, kInternal for corruption) or load a
  // network whose bindings and outputs are identical to the pristine
  // one (flips in padding or in non-semantic name bytes) — never a
  // crash, another exception type, or a silently different network.
  const TimerGuard timer(slow_is_fast());
  TempPath tmp("tasd_fuzz.tasdart");
  const auto engine = compile(small_net(), small_configs(), tuned_opt());
  save_artifact(engine, tmp.path);
  const auto pristine = io::read_file(tmp.path);

  Rng rng(9320);
  const MatrixF probe = random_dense(16, 3, Dist::kNormalStd1, rng);
  const MatrixF want0 = engine.run(0, probe);
  const MatrixF want1 = engine.run(1, probe);
  CompileOptions opt;
  opt.measure.use_plan_cache = false;

  std::size_t typed = 0, benign = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    auto bytes = pristine;
    bytes[pos] ^= 0xA5;
    io::write_file(tmp.path, bytes);
    try {
      const auto loaded = load_artifact(tmp.path, opt);
      ++benign;
      for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
        ASSERT_EQ(loaded.layer(i).kernel, engine.layer(i).kernel)
            << "silent re-binding after flipping byte " << pos;
        ASSERT_EQ(loaded.layer(i).batch_kernel, engine.layer(i).batch_kernel)
            << "byte " << pos;
      }
      ASSERT_EQ(loaded.run(0, probe), want0) << "byte " << pos;
      ASSERT_EQ(loaded.run(1, probe), want1) << "byte " << pos;
    } catch (const Error& e) {
      ++typed;
      ASSERT_TRUE(e.code() == Error::Code::kFailedPrecondition ||
                  e.code() == Error::Code::kInternal)
          << "byte " << pos << ": unexpected code " << static_cast<int>(e.code());
    }
    // Any other exception (or a crash) propagates and fails the test.
  }
  // CRCs cover all payloads, so the overwhelming majority of flips must
  // be caught; only padding/name flips may load.
  EXPECT_GT(typed, pristine.size() / 2);
  EXPECT_EQ(typed + benign, pristine.size());
}

}  // namespace
}  // namespace tasd::rt
