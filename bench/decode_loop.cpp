// Autoregressive-decode bench: the two whole-network execution paths
// on the transformer decode step.
//
// Each step is dnn::decode_step_workload — attention projections,
// score/value mixing against the KV cache, and the MLP pair, all at
// query_cols = 1. That is the GEMV regime: per-layer kernel cost is
// dominated by the weight traversal, so executing a batch of decode
// steps one item at a time (seq_loop — the natural per-request serving
// loop, CompiledNetwork::run_network per item) re-traverses every
// weight per item, while the layer-major batched path (seq_batch —
// run_network_batch) traverses each weight once per batch and pays one
// pool barrier per layer.
//
// The sweep runs per kernel set (pinned scalar and, when registered,
// AVX2/FMA), per KV-cache length, per batch, on the default pool.
// Before timing, every cell's batched output is checked bit-exact
// (`==`) against the per-item loop of the same artifact — a
// wrong-but-fast path fails loudly here (non-zero exit).
//
// `speedup` = seq_loop_ms / seq_batch_ms: what batching decode steps
// buys over serving them one at a time.
//
// Emits BENCH_decode.json (schema tasd-bench-decode-v2; see
// docs/reproducing.md).
//
// Usage: decode_loop [output.json] [--quick]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;

constexpr Index kHidden = 256;

/// 2:4 on the four pruned projection/MLP weights; the KV-cache layers
/// (scores, value mixing) stay dense — they are activations, not
/// weights (workload sets them density 1.0 and TASD-A-ineligible).
std::vector<std::optional<TasdConfig>> decode_configs(
    const dnn::NetworkWorkload& net) {
  std::vector<std::optional<TasdConfig>> configs;
  configs.reserve(net.layers.size());
  for (const auto& l : net.layers) {
    if (l.weight_density < 1.0)
      configs.emplace_back(TasdConfig::parse("2:4"));
    else
      configs.emplace_back(std::nullopt);
  }
  return configs;
}

struct Entry {
  Index kv = 0;
  std::size_t batch = 0;
  double seq_loop_ms = 0.0;
  double seq_batch_ms = 0.0;
  [[nodiscard]] double speedup() const {
    return seq_batch_ms > 0.0 ? seq_loop_ms / seq_batch_ms : 0.0;
  }
};

struct KernelSetResult {
  std::string label;
  std::string dense_kernel;
  std::string nm_kernel;
  std::vector<Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_decode.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  const std::vector<Index> kv_lens =
      quick ? std::vector<Index>{128, 512} : std::vector<Index>{128, 512, 2048};
  const std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 4, 8}
            : std::vector<std::size_t>{1, 4, 8, 16};
  const int repeats = quick ? 5 : 9;

  std::vector<std::pair<std::string, rt::CompileOptions>> kernel_sets;
  {
    rt::CompileOptions scalar;
    scalar.query_cols = 1;
    scalar.n_divisor = 1;  // decode layers are already n = 1
    scalar.measure.repeats = 1;
    scalar.dense_kernel = "tiled-parallel";
    scalar.nm_kernel = "row-parallel";
    kernel_sets.emplace_back("scalar", scalar);
    // Gate on registry membership, not *_available(): a toolchain whose
    // compiler rejects -mavx2 builds no SIMD kernels even on capable
    // hardware, and compiling an unregistered name would throw.
    const auto dense_names = rt::GemmDispatch::instance().dense_kernels();
    const auto registered = [&](const char* name) {
      return std::find(dense_names.begin(), dense_names.end(), name) !=
             dense_names.end();
    };
    if (registered("dense-avx2")) {
      rt::CompileOptions simd = scalar;
      simd.dense_kernel = "dense-avx2";
      simd.nm_kernel = "nm-avx2";
      kernel_sets.emplace_back("avx2", simd);
    }
  }

  std::vector<KernelSetResult> results;
  volatile float sink = 0.0F;  // defeat dead-code elimination
  for (const auto& [label, base_opt] : kernel_sets) {
    KernelSetResult r;
    r.label = label;
    for (const Index kv : kv_lens) {
      const auto net = dnn::decode_step_workload(kHidden, kv, true, 42);
      // Plans are shared through the process-wide cache, so only the
      // first artifact per (weights, config) pair decomposes.
      const auto engine = rt::compile(net, decode_configs(net), base_opt);
      r.dense_kernel = engine.options().dense_kernel;
      r.nm_kernel = engine.options().nm_kernel;

      // Dedicated warmup for this kernel set / kv cell: spin the pool
      // up, fault the weights in, and let both execution paths touch
      // their buffers once before anything is timed — otherwise the
      // first row of each sweep absorbs those one-time costs and reads
      // slower than the identical later rows.
      {
        Rng wrng(8001 + static_cast<std::uint64_t>(kv));
        const std::vector<MatrixF> warm = {
            random_dense(kHidden, 1, Dist::kNormalStd1, wrng)};
        (void)engine.run_network(warm[0]);
        (void)engine.run_network_batch(warm);
      }

      Rng rng(9001 + static_cast<std::uint64_t>(kv));
      for (const std::size_t batch : batches) {
        std::vector<MatrixF> inputs;
        inputs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
          inputs.push_back(random_dense(kHidden, 1, Dist::kNormalStd1, rng));

        // Bit-exactness gate: the batched path must reproduce the
        // per-item loop exactly before its timing means anything.
        const auto batch_out = engine.run_network_batch(inputs);
        for (std::size_t i = 0; i < batch; ++i) {
          if (!(engine.run_network(inputs[i]) == batch_out[i])) {
            std::fprintf(stderr,
                         "** NOT BIT-EXACT: %s kv=%zu batch=%zu item %zu **\n",
                         label.c_str(), static_cast<std::size_t>(kv), batch,
                         i);
            return 1;
          }
        }

        Entry e;
        e.kv = kv;
        e.batch = batch;
        e.seq_loop_ms = time_ms_min(repeats, [&] {
          for (const MatrixF& x : inputs)
            sink = sink + engine.run_network(x)(0, 0);
        });
        e.seq_batch_ms = time_ms_min(repeats, [&] {
          sink = sink + engine.run_network_batch(inputs)[0](0, 0);
        });
        std::fprintf(stderr,
                     "[%s] kv %5zu  batch %3zu  loop %9.4f ms  batched "
                     "%8.4f ms  speedup %.3fx\n",
                     label.c_str(), static_cast<std::size_t>(kv), batch,
                     e.seq_loop_ms, e.seq_batch_ms, e.speedup());
        r.entries.push_back(e);
      }
    }
    results.push_back(std::move(r));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::perror("decode_loop: cannot open output");
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-decode-v2\",\n");
  std::fprintf(f, "  \"workload\": \"decode_step\",\n");
  std::fprintf(f, "  \"hidden\": %zu,\n", static_cast<std::size_t>(kHidden));
  std::fprintf(f, "  \"config\": \"2:4\",\n");
  std::fprintf(f, "  \"query_cols\": 1,\n");
  std::fprintf(f, "  \"threads\": %zu,\n", rt::default_num_threads());
  std::fprintf(f, "  \"bit_exact\": true,\n");
  std::fprintf(f, "  \"kernel_sets\": [\n");
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    std::fprintf(f,
                 "    {\"kernels\": \"%s\", \"dense_kernel\": \"%s\", "
                 "\"nm_kernel\": \"%s\",\n     \"entries\": [\n",
                 r.label.c_str(), r.dense_kernel.c_str(), r.nm_kernel.c_str());
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const auto& e = r.entries[i];
      std::fprintf(f,
                   "      {\"kv\": %zu, \"batch\": %zu, "
                   "\"seq_loop_ms\": %.6f, \"seq_batch_ms\": %.6f, "
                   "\"speedup\": %.6f}%s\n",
                   static_cast<std::size_t>(e.kv), e.batch, e.seq_loop_ms,
                   e.seq_batch_ms, e.speedup(),
                   i + 1 < r.entries.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", s + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
