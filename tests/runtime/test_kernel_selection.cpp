// Kernel auto-selection: CompileOptions' "auto" names resolve through
// best_dense()/best_nm() at compile() time — the static fallback chain
// avx2 > scalar, walking down when runtime detection (or the
// TASD_DISABLE_AVX2 escape hatch the scalar CI leg sets) removes the
// AVX2 family. On a scalar-only pool "auto" must bind the tiled kernels
// and stay bit-exact.
#include <gtest/gtest.h>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny-selection";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 48;
  l1.k = 96;
  l1.n = 32;
  l1.weight_density = 0.2;
  l1.weight_seed = 9101;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_seed = 9102;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

TEST(KernelSelection, AutoResolvesToBestAtCompileTime) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  const auto& opt = engine.options();
  // The artifact's bound names are concrete table names, never the
  // "auto" sentinel, and equal the table's best picks.
  EXPECT_EQ(opt.dense_kernel, best_dense().name);
  EXPECT_EQ(opt.nm_kernel, best_nm().name);
  // The policy run()/run_batch() execute under carries the same picks,
  // already resolved to kernel pointers.
  EXPECT_EQ(engine.policy().dense_kernel, best_dense().fn);
  EXPECT_EQ(engine.policy().nm_kernel, best_nm().fn);
  if (avx2_available()) {
    // Static chain head: the AVX2 family when available.
    EXPECT_EQ(opt.dense_kernel, "dense-avx2");
    EXPECT_EQ(opt.nm_kernel, "nm-avx2");
  } else {
    // Forced-fallback acceptance: without any SIMD family the auto
    // selection must pick the scalar tiled kernels.
    EXPECT_EQ(opt.dense_kernel, "tiled-parallel");
    EXPECT_EQ(opt.nm_kernel, "row-parallel");
  }
  // Single-query and batch calls bind the same slot name.
  for (std::size_t i = 0; i < engine.layer_count(); ++i)
    EXPECT_EQ(engine.layer(i).batch_kernel, engine.layer(i).kernel) << i;
}

TEST(KernelSelection, AutoSelectedKernelsStayBitExact) {
  // Whatever family "auto" bound: run() matches the direct kernel path
  // under the resolved policy bitwise at several thread counts, the
  // batched path matches looped run(), and the result agrees with the
  // scalar oracle to float tolerance.
  const auto net = tiny_net();
  const auto engine = compile(net, mixed_configs(), {});
  Rng rng(9200);
  const MatrixF b = random_dense(net.layers[0].k, 11, Dist::kNormalStd1, rng);
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);

  ExecPolicy resolved = engine.policy();
  const MatrixF dense_direct = dense_gemm(w1, b, resolved);
  EXPECT_EQ(engine.run(1, b), dense_direct);
  EXPECT_TRUE(allclose(dense_direct, gemm_ref(w1, b), 1e-4, 1e-4));

  std::vector<MatrixF> bs;
  for (const Index cols : {1u, 4u, 0u, 9u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));
  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto at = compile(net, mixed_configs(), opt);
    const auto batch = at.run_batch(0, bs);
    for (std::size_t q = 0; q < bs.size(); ++q)
      EXPECT_EQ(batch[q], at.run(0, bs[q]))
          << "threads=" << threads << " item=" << q;
    EXPECT_EQ(at.run(1, b), dense_direct) << "threads=" << threads;
  }
}

TEST(KernelSelection, ScalarFallbackSelectionIsBitExactToPinnedScalar) {
  // When best == scalar (non-AVX2 machine or TASD_DISABLE_AVX2=1), the
  // auto artifact must be indistinguishable from explicitly pinning the
  // scalar kernels. On AVX2 machines this asserts the complementary
  // fact for the AVX2 family.
  const auto net = tiny_net();
  const auto auto_engine = compile(net, mixed_configs(), {});
  CompileOptions pin;
  pin.dense_kernel = auto_engine.options().dense_kernel;
  pin.nm_kernel = auto_engine.options().nm_kernel;
  const auto pinned = compile(net, mixed_configs(), pin);
  Rng rng(9400);
  const MatrixF b = random_dense(net.layers[0].k, 7, Dist::kNormalStd1, rng);
  EXPECT_EQ(auto_engine.run(0, b), pinned.run(0, b));
  EXPECT_EQ(auto_engine.run(1, b), pinned.run(1, b));
}

}  // namespace
}  // namespace tasd::rt
