#include "runtime/compiled_network.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/layer_binding.hpp"
#include "dnn/workloads.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

/// Small synthetic workload: two layers, generous sparsity. Seeds are
/// distinct from the engine tests so cross-suite PlanCache hits can't
/// mask this file's prewarm accounting.
dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny-compiled";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 64;
  l1.k = 256;
  l1.n = 64;
  l1.weight_density = 0.1;
  l1.weight_seed = 7005;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.m = 128;
  l2.k = 128;
  l2.weight_seed = 7006;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

TEST(CompiledNetwork, CompileBindsLayersAndPrewarmsPlansExactlyOnce) {
  const auto net = tiny_net();
  const std::vector<std::optional<TasdConfig>> cfgs{
      TasdConfig::parse("2:4"), TasdConfig::parse("1:4")};
  const auto before = plan_cache().stats();
  const auto engine = compile(net, cfgs, {});
  const auto after = plan_cache().stats();
  // One cache visit per configured layer, no more.
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 2);

  ASSERT_EQ(engine.layer_count(), 2u);
  EXPECT_EQ(engine.name(), "tiny-compiled");
  EXPECT_EQ(engine.configured_count(), 2u);
  EXPECT_GT(engine.plan_bytes(), 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& l = engine.layer(i);
    EXPECT_EQ(l.name, net.layers[i].name);
    EXPECT_EQ(l.m, net.layers[i].m);
    EXPECT_EQ(l.k, net.layers[i].k);
    EXPECT_EQ(l.n, net.layers[i].n);
    ASSERT_TRUE(l.plan);
    const double kept = static_cast<double>(l.plan->nnz()) /
                        static_cast<double>(l.m * l.k);
    EXPECT_GT(kept, 0.0);
  }

  // A second compile of the same weights performs zero additional
  // decompositions — the plans are shared through the cache.
  const auto engine2 = compile(net, cfgs, {});
  const auto again = plan_cache().stats();
  EXPECT_EQ(again.decompositions, after.decompositions);
  EXPECT_GE(again.hits, after.hits + 2);
  EXPECT_EQ(engine2.layer(0).plan.get(), engine.layer(0).plan.get());
}

TEST(CompiledNetwork, ConfigListMustAlign) {
  EXPECT_THROW(compile(tiny_net(), {std::nullopt}, {}), Error);
}

TEST(CompiledNetwork, RunMatchesDirectKernelPathsAtEveryThreadCount) {
  // Acceptance invariant: run()/run_batch() are bit-identical to the
  // series_gemm / series_gemm_batch (and dense_gemm) paths at
  // every thread count. The direct paths execute under the artifact's
  // resolved kernel selection ("auto" may bind the AVX2 family, whose
  // bits differ from the scalar registry defaults) but on the default
  // pool — the kernel name fixes the bits, the pool never does.
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();

  Rng rng(424);
  const MatrixF b0 = random_dense(net.layers[0].k, 9, Dist::kNormalStd1, rng);
  const MatrixF b1 = random_dense(net.layers[1].k, 9, Dist::kNormalStd1, rng);

  const MatrixF w0 = dnn::materialize_weight(net.layers[0]);
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);
  const auto plan = plan_cache().get_or_build(w0, *cfgs[0]);
  ExecPolicy resolved;  // what "auto" resolves to, on the default pool
  resolved.dense_kernel = best_dense().fn;
  resolved.nm_kernel = best_nm().fn;
  const MatrixF want0 = series_gemm(*plan, b0, resolved);
  const MatrixF want1 = dense_gemm(w1, b1, resolved);

  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, cfgs, opt);
    EXPECT_EQ(engine.run(0, b0), want0) << "threads=" << threads;
    EXPECT_EQ(engine.run(1, b1), want1) << "threads=" << threads;
  }
}

TEST(CompiledNetwork, RunBatchMatchesLoopedRunAtEveryThreadCount) {
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();

  Rng rng(425);
  // Ragged batch, including a zero-width item.
  std::vector<MatrixF> bs;
  for (const Index cols : {1u, 7u, 0u, 16u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));

  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, cfgs, opt);
    const auto batch = engine.run_batch(0, bs);
    ASSERT_EQ(batch.size(), bs.size());
    for (std::size_t q = 0; q < bs.size(); ++q)
      EXPECT_EQ(batch[q], engine.run(0, bs[q]))
          << "threads=" << threads << " item=" << q;
  }
}

TEST(CompiledNetwork, RunNetworkBatchMatchesLoopedRunNetwork) {
  // The decode stack chains six layers mixing 2:4 (projections/MLP) and
  // dense (KV-cache) bindings at GEMV width: the layer-major batched
  // forward must be bitwise the per-item forward at every pool size,
  // including pools wider than the batch.
  const auto net = dnn::decode_step_workload(64, 48, true, 515);
  std::vector<std::optional<TasdConfig>> cfgs;
  for (const auto& l : net.layers) {
    if (l.weight_density < 1.0)
      cfgs.emplace_back(TasdConfig::parse("2:4"));
    else
      cfgs.emplace_back(std::nullopt);
  }
  Rng rng(6061);
  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.query_cols = 1;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, cfgs, opt);
    ASSERT_TRUE(engine.is_chain());
    for (const std::size_t items : {1u, 2u, 5u, 8u}) {
      // Ragged widths cycling 1, 3, 2.
      std::vector<MatrixF> xs;
      for (std::size_t i = 0; i < items; ++i)
        xs.push_back(random_dense(engine.layer(0).k,
                                  static_cast<Index>(1 + (2 * i) % 3),
                                  Dist::kNormalStd1, rng));
      const auto batched = engine.run_network_batch(xs);
      ASSERT_EQ(batched.size(), items);
      for (std::size_t i = 0; i < items; ++i)
        EXPECT_TRUE(batched[i] == engine.run_network(xs[i]))
            << "threads=" << threads << " items=" << items << " item " << i;
    }
  }
}

TEST(CompiledNetwork, RunNetworkRejectsNonChainableNetwork) {
  // tiny_net's second layer reduces over 128 rows, but the first layer
  // outputs 64: there is no whole-network forward to run.
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  EXPECT_FALSE(engine.is_chain());
  Rng rng(6062);
  const MatrixF x = random_dense(256, 1, Dist::kNormalStd1, rng);
  EXPECT_THROW((void)engine.run_network(x), Error);
  EXPECT_THROW((void)engine.run_network_batch({&x, 1}), Error);
}

TEST(CompiledNetwork, RepeatedRunsPerformZeroAdditionalDecompositions) {
  const auto net = tiny_net();
  const auto engine = compile(net, mixed_configs(), {});
  Rng rng(426);
  const MatrixF b = random_dense(net.layers[0].k, 5, Dist::kNormalStd1, rng);
  const std::vector<MatrixF> bs{b, b};

  const auto before = plan_cache().stats();
  for (int pass = 0; pass < 3; ++pass) {
    (void)engine.run(0, b);
    (void)engine.run_batch(0, bs);
  }
  (void)engine.measure();
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "executing a compiled artifact must never decompose";
  EXPECT_EQ(after.hits, before.hits)
      << "executing a compiled artifact must not even consult the cache";
  EXPECT_EQ(after.misses, before.misses);
}

TEST(CompiledNetwork, ConfiguredLayerKeepsItsPlanKeyNotItsWeight) {
  // A configured layer holds its plan and the weight's fingerprint (the
  // plan's cache key), and no weight; a dense layer keeps its weight.
  const auto net = tiny_net();
  const MatrixF w0 = dnn::materialize_weight(net.layers[0]);
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);
  const auto engine = compile(net, mixed_configs(), {});
  const auto& configured = engine.layer(0);
  ASSERT_TRUE(configured.plan);
  EXPECT_TRUE(configured.weight.empty());
  EXPECT_EQ(configured.fingerprint, content_fingerprint(w0));
  EXPECT_EQ(configured.m, w0.rows());
  EXPECT_EQ(configured.k, w0.cols());
  EXPECT_EQ(configured.plan->nnz(), build_plan(w0, *mixed_configs()[0]).nnz());
  const auto& dense = engine.layer(1);
  EXPECT_FALSE(dense.plan);
  EXPECT_EQ(dense.weight, w1);
}

TEST(CompiledNetwork, MeasureReportsEveryLayer) {
  const auto net = tiny_net();
  CompileOptions opt;
  opt.n_divisor = 1;
  opt.measure.repeats = 1;
  const auto engine = compile(net, mixed_configs(), opt);
  const auto timings = engine.measure();
  ASSERT_EQ(timings.size(), 2u);
  EXPECT_EQ(timings[0].name, "a");
  EXPECT_GT(timings[0].dense_ms, 0.0);
  EXPECT_GT(timings[0].tasd_ms, 0.0);
  EXPECT_TRUE(timings[0].config.has_value());
  EXPECT_EQ(timings[0].m, engine.layer(0).m);
  EXPECT_EQ(timings[0].k, engine.layer(0).k);
  EXPECT_FALSE(timings[1].config.has_value());
  EXPECT_EQ(timings[1].tasd_ms, 0.0);
}

TEST(CompiledNetwork, MeasureAppliesNDivisorShrink) {
  auto net = tiny_net();
  net.layers[0].n = 6;    // < n_divisor: must keep full N
  net.layers[1].n = 100;  // 100/8 = 12.5: must round to 13
  CompileOptions opt;
  opt.n_divisor = 8;
  opt.measure.repeats = 1;
  const auto timings =
      compile(net, {std::nullopt, std::nullopt}, opt).measure();
  EXPECT_EQ(timings[0].n, 6u);
  EXPECT_EQ(timings[1].n, 13u);
}

TEST(CompiledNetwork, RunValidatesShapesAndIndices) {
  const auto net = tiny_net();
  const auto engine = compile(net, mixed_configs(), {});
  Rng rng(428);
  const MatrixF wrong =
      random_dense(net.layers[0].k + 1, 3, Dist::kNormalStd1, rng);
  EXPECT_THROW((void)engine.run(0, wrong), Error);
  EXPECT_THROW((void)engine.run(1, wrong), Error);  // dense path too
  const std::vector<MatrixF> bad{wrong};
  EXPECT_THROW((void)engine.run_batch(0, bad), Error);
  EXPECT_THROW((void)engine.layer(2), Error);
  const MatrixF ok = random_dense(net.layers[0].k, 3, Dist::kNormalStd1, rng);
  EXPECT_THROW((void)engine.run(5, ok), Error);
}

TEST(CompiledNetwork, CompileFromExplicitBindings) {
  Rng rng(429);
  std::vector<dnn::LayerBinding> bindings(2);
  bindings[0].name = "sparse";
  bindings[0].weight = random_dense(16, 32, Dist::kNormalStd1, rng);
  bindings[0].positions = 12;
  bindings[0].config = TasdConfig::parse("2:4");
  bindings[1].name = "dense";
  bindings[1].weight = random_dense(8, 16, Dist::kNormalStd1, rng);
  bindings[1].positions = 12;

  const MatrixF w0 = bindings[0].weight;  // compile moves the bindings
  const auto engine = compile("handmade", std::move(bindings), {});
  EXPECT_EQ(engine.name(), "handmade");
  ASSERT_EQ(engine.layer_count(), 2u);
  EXPECT_EQ(engine.configured_count(), 1u);
  const MatrixF b = random_dense(32, 4, Dist::kNormalStd1, rng);
  const auto plan = plan_cache().get_or_build(w0, TasdConfig::parse("2:4"));
  EXPECT_EQ(engine.run(0, b), series_gemm(*plan, b, engine.policy()));
}

TEST(CompiledNetwork, CompileRejectsPrebuiltPlanOfAnotherConfig) {
  // A binding that carries a plan is bound as-is, so the plan must
  // decompose the binding's own config.
  Rng rng(430);
  std::vector<dnn::LayerBinding> bindings(1);
  bindings[0].name = "mismatched";
  bindings[0].positions = 4;
  bindings[0].config = TasdConfig::parse("2:4");
  const MatrixF w = random_dense(16, 32, Dist::kNormalStd1, rng);
  bindings[0].plan = std::make_shared<const DecompositionPlan>(
      build_plan(w, TasdConfig::parse("1:4")));
  EXPECT_THROW((void)compile("mismatched", std::move(bindings), {}), Error);
}

TEST(CompiledNetwork, CompileRejectsPrebuiltPlanWithoutConfig) {
  Rng rng(431);
  std::vector<dnn::LayerBinding> bindings(1);
  bindings[0].name = "unconfigured";
  bindings[0].positions = 4;
  const MatrixF w = random_dense(16, 32, Dist::kNormalStd1, rng);
  bindings[0].plan = std::make_shared<const DecompositionPlan>(
      build_plan(w, TasdConfig::parse("2:4")));
  EXPECT_THROW((void)compile("unconfigured", std::move(bindings), {}), Error);
}

TEST(CompiledNetwork, CompileValidatesOptions) {
  CompileOptions bad_div;
  bad_div.n_divisor = 0;
  EXPECT_THROW(compile(tiny_net(), mixed_configs(), bad_div), Error);
  CompileOptions bad_cols;
  bad_cols.query_cols = 0;
  EXPECT_THROW(compile(tiny_net(), mixed_configs(), bad_cols), Error);
  // Zero repeats must not reach the timers: they make every timing
  // 1e300 ms.
  const auto invalid_argument = [](const CompileOptions& opt) {
    try {
      (void)compile(tiny_net(), mixed_configs(), opt);
    } catch (const Error& e) {
      return e.code() == Error::Code::kInvalidArgument;
    }
    return false;
  };
  for (const int repeats : {0, -1}) {
    CompileOptions bad_repeats;
    bad_repeats.measure.repeats = repeats;
    EXPECT_TRUE(invalid_argument(bad_repeats)) << repeats;
  }
}

TEST(CompiledNetwork, CompileRejectsUnknownKernelNamesEagerly) {
  // Kernel binding is a compile-time promise: a name the kernel table
  // does not hold must fail at compile(), not mid-inference at first
  // run(). An empty name is no alias for the defaults.
  for (auto field :
       {&CompileOptions::dense_kernel, &CompileOptions::nm_kernel}) {
    for (const char* name : {"no-such-kernel", ""}) {
      CompileOptions opt;
      opt.*field = name;
      EXPECT_THROW(compile(tiny_net(), mixed_configs(), opt), Error)
          << "'" << name << "'";
    }
  }
  // Known non-default names still compile and execute. Within one
  // rounding family, kernel selection only changes scheduling: the
  // serial scalar kernels produce the same bits as the parallel scalar
  // kernels (AVX2 kernels are a different family — docs/kernels.md).
  CompileOptions serial;
  serial.nm_kernel = "serial";
  serial.dense_kernel = "tiled-serial";
  const auto engine = compile(tiny_net(), mixed_configs(), serial);
  CompileOptions scalar;
  scalar.nm_kernel = "row-parallel";
  scalar.dense_kernel = "tiled-parallel";
  Rng rng(430);
  const MatrixF b =
      random_dense(tiny_net().layers[0].k, 3, Dist::kNormalStd1, rng);
  EXPECT_EQ(engine.run(0, b),
            compile(tiny_net(), mixed_configs(), scalar).run(0, b))
      << "within a kernel family, selection must not change results, "
         "only scheduling";
}

}  // namespace
}  // namespace tasd::rt
