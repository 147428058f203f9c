// Autotune bench (ISSUE 10 acceptance): does per-layer micro-bench
// binding ever lose to the static best_*() chain, and does the tuned
// artifact round-trip?
//
// The network mixes layer shapes and patterns on purpose — a skinny
// GEMV-regime layer, a wide batch-friendly layer, a mixed 2:8+1:8
// series, a dense layer — so different candidates get a chance to win
// different layers. compile() under KernelPolicy::kAutotune times every
// registered candidate per layer with time_ms_min (min-of-N, untimed
// warmup); the emitted JSON carries the full candidate tables, the
// chosen binding, and the static binding's timing *from the same
// table*, so "chosen vs static" compares measurements taken identically
// in the same process.
//
// Hard gates (non-zero exit):
//  * per layer and workload, chosen_ms <= static_ms — the winner is the
//    table argmin and the static name is in the table, so autotuning
//    can never regress a layer beyond measurement noise (and the noise
//    is shared: one table, one protocol);
//  * the tuned network matches a scalar-pinned compile of the same
//    network to 1e-4 on random inputs (tuning may change the rounding
//    family, never the math);
//  * save → load restores the binding verbatim with zero decompositions
//    and the loaded network runs bit-exact to the tuned one.
//
// Emits BENCH_autotune.json (schema tasd-bench-autotune-v1; see
// docs/reproducing.md).
//
// Usage: autotune [output.json] [--quick]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "runtime/autotune.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace {

using namespace tasd;

dnn::NetworkWorkload bench_net(bool quick) {
  const Index scale = quick ? 1 : 2;
  dnn::NetworkWorkload net;
  net.name = "autotune-bench";
  net.sparse_weights = true;
  dnn::GemmWorkload skinny;  // GEMV regime: weight traversal dominates
  skinny.name = "skinny";
  skinny.m = 192 * scale;
  skinny.k = 256 * scale;
  skinny.n = 1;
  skinny.weight_density = 0.25;
  skinny.weight_seed = 7701;
  dnn::GemmWorkload wide = skinny;  // batch-friendly: wide RHS
  wide.name = "wide";
  wide.n = 64 * scale;
  wide.weight_seed = 7702;
  dnn::GemmWorkload mixed = skinny;  // two-term series, ragged K
  mixed.name = "mixed";
  mixed.k = 120 * scale;
  mixed.n = 16;
  mixed.weight_seed = 7703;
  dnn::GemmWorkload dense = skinny;  // dense slot
  dense.name = "dense";
  dense.weight_density = 1.0;
  dense.n = 24;
  dense.weight_seed = 7704;
  net.layers = {skinny, wide, mixed, dense};
  return net;
}

std::vector<std::optional<TasdConfig>> bench_configs() {
  return {TasdConfig::parse("2:4"), TasdConfig::parse("2:4"),
          TasdConfig::parse("2:8+1:8"), std::nullopt};
}

double table_ms(const std::vector<rt::TuneCandidate>& table,
                const std::string& kernel) {
  for (const auto& c : table)
    if (c.kernel == kernel) return c.ms;
  return -1.0;
}

void print_table(std::FILE* f, const char* key,
                 const std::vector<rt::TuneCandidate>& table,
                 const char* trailing) {
  std::fprintf(f, "        \"%s\": [", key);
  for (std::size_t i = 0; i < table.size(); ++i)
    std::fprintf(f, "%s{\"kernel\": \"%s\", \"ms\": %.6f}",
                 i == 0 ? "" : ", ", table[i].kernel.c_str(), table[i].ms);
  std::fprintf(f, "]%s\n", trailing);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_autotune.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else
      out_path = arg;
  }

  const auto net = bench_net(quick);
  const auto configs = bench_configs();

  rt::CompileOptions tune_opt;
  tune_opt.kernel_policy = rt::KernelPolicy::kAutotune;
  tune_opt.measure.repeats = quick ? 3 : 7;
  std::fprintf(stderr, "[autotune] compiling + tuning %zu layers on %s...\n",
               net.layers.size(), cpu_signature().c_str());
  const auto tuned = rt::compile(net, configs, tune_opt);
  if (!tuned.tuning().has_value()) {
    std::fprintf(stderr, "** kAutotune produced no TuningResult **\n");
    return 1;
  }
  const rt::TuningResult& result = *tuned.tuning();

  // The static chain's picks, for the chosen-vs-static comparison. The
  // static names sit in the same candidate tables the tuner measured,
  // so both sides of every ratio share one measurement protocol.
  const auto& dispatch = rt::GemmDispatch::instance();
  bool never_slower = true;
  for (const rt::LayerTuning& lt : result.layers) {
    const std::string static_name =
        lt.nm ? dispatch.best_nm() : dispatch.best_dense();
    const double chosen_s = table_ms(lt.single, lt.chosen_single);
    const double static_s = table_ms(lt.single, static_name);
    const double chosen_b = table_ms(lt.batch, lt.chosen_batch);
    const double static_b = table_ms(lt.batch, static_name);
    std::fprintf(stderr,
                 "[autotune] %-7s single %-18s %8.4f ms (static %-18s "
                 "%8.4f ms)  batch %-18s %8.4f ms (static %-18s %8.4f ms)\n",
                 lt.layer.c_str(), lt.chosen_single.c_str(), chosen_s,
                 static_name.c_str(), static_s, lt.chosen_batch.c_str(),
                 chosen_b, static_name.c_str(), static_b);
    if (chosen_s < 0 || static_s < 0 || chosen_b < 0 || static_b < 0 ||
        chosen_s > static_s || chosen_b > static_b) {
      std::fprintf(stderr, "** autotuned binding slower than static on %s **\n",
                   lt.layer.c_str());
      never_slower = false;
    }
  }
  if (!never_slower) return 1;

  // Correctness gate: the tuned network against a scalar-pinned compile
  // of the same weights — whatever family won, the math must agree.
  rt::CompileOptions scalar_opt;
  scalar_opt.dense_kernel = "tiled-parallel";
  scalar_opt.nm_kernel = "row-parallel";
  const auto scalar = rt::compile(net, configs, scalar_opt);
  Rng rng(7790);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const MatrixF b =
        random_dense(net.layers[i].k, 5, Dist::kNormalStd1, rng);
    if (!allclose(tuned.run(i, b), scalar.run(i, b), 1e-4, 1e-4)) {
      std::fprintf(stderr, "** tuned layer %zu diverges from scalar run **\n",
                   i);
      return 1;
    }
  }
  std::fprintf(stderr, "[autotune] scalar correctness gate passed\n");

  // Round-trip gate: the tuned artifact must come back with the binding
  // restored, zero decompositions, and bit-exact execution.
  const std::string art_path = out_path + ".tasdart";
  save_artifact(tuned, art_path);
  plan_cache().clear();
  const auto before = plan_cache().stats();
  const double load_ms = [&] {
    Timer t;
    const auto loaded = rt::load_artifact(art_path, {});
    const double ms = t.millis();
    const auto after = plan_cache().stats();
    if (after.decompositions != before.decompositions) {
      std::fprintf(stderr, "** tuned load decomposed **\n");
      std::exit(1);
    }
    if (!loaded.tuning().has_value()) {
      std::fprintf(stderr, "** tuned load dropped the binding **\n");
      std::exit(1);
    }
    for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
      if (loaded.layer(i).kernel != tuned.layer(i).kernel ||
          loaded.layer(i).batch_kernel != tuned.layer(i).batch_kernel) {
        std::fprintf(stderr, "** binding not restored on layer %zu **\n", i);
        std::exit(1);
      }
      Rng prng(7791 + i);
      const MatrixF b =
          random_dense(net.layers[i].k, 3, Dist::kNormalStd1, prng);
      if (!(loaded.run(i, b) == tuned.run(i, b))) {
        std::fprintf(stderr, "** loaded tuned network not bit-exact **\n");
        std::exit(1);
      }
    }
    return ms;
  }();
  std::remove(art_path.c_str());
  std::fprintf(stderr,
               "[autotune] round-trip gate passed (load %0.3f ms, zero "
               "decompositions)\n",
               load_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::perror("autotune: cannot open output");
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-autotune-v1\",\n");
  std::fprintf(f, "  \"host_signature\": \"%s\",\n",
               result.host_signature.c_str());
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"repeats\": %d,\n", tune_opt.measure.repeats);
  std::fprintf(f, "  \"never_slower_than_static\": true,\n");
  std::fprintf(f, "  \"scalar_correctness\": true,\n");
  std::fprintf(f, "  \"roundtrip_restored\": true,\n");
  std::fprintf(f, "  \"roundtrip_load_ms\": %.4f,\n", load_ms);
  std::fprintf(f, "  \"layers\": [\n");
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const rt::LayerTuning& lt = result.layers[i];
    const std::string static_name =
        lt.nm ? dispatch.best_nm() : dispatch.best_dense();
    std::fprintf(f, "    {\n      \"layer\": \"%s\",\n", lt.layer.c_str());
    std::fprintf(f, "      \"nm\": %s,\n", lt.nm ? "true" : "false");
    std::fprintf(f, "      \"chosen_single\": \"%s\",\n",
                 lt.chosen_single.c_str());
    std::fprintf(f, "      \"static_single\": \"%s\",\n",
                 static_name.c_str());
    std::fprintf(f, "      \"chosen_batch\": \"%s\",\n",
                 lt.chosen_batch.c_str());
    std::fprintf(f, "      \"static_batch\": \"%s\",\n", static_name.c_str());
    std::fprintf(f, "      \"single_chosen_ms\": %.6f,\n",
                 table_ms(lt.single, lt.chosen_single));
    std::fprintf(f, "      \"single_static_ms\": %.6f,\n",
                 table_ms(lt.single, static_name));
    std::fprintf(f, "      \"batch_chosen_ms\": %.6f,\n",
                 table_ms(lt.batch, lt.chosen_batch));
    std::fprintf(f, "      \"batch_static_ms\": %.6f,\n",
                 table_ms(lt.batch, static_name));
    print_table(f, "candidates_single", lt.single, ",");
    print_table(f, "candidates_batch", lt.batch, "");
    std::fprintf(f, "    }%s\n", i + 1 < result.layers.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[autotune] wrote %s\n", out_path.c_str());
  return 0;
}
