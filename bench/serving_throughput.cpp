// Serving-throughput bench: the batched execution path on the Fig. 16
// real-system workload (unstructured-sparse ResNet-34, 2:4 kernels).
//
// Each query is one GEMV-style right-hand side per layer; the batch
// shares each layer's one DecompositionPlan across every item and runs
// packed through the parallel kernels, which amortize per-k-step overhead
// over the whole batch — the queries/sec gain over batch-1 is the
// serving story (DeepSparse-style CPU runtimes, 2:4 tensor-core serving).
// The sweep runs once per kernel set — the pinned scalar kernels and,
// when the CPU supports them, the AVX2/FMA kernels — so the JSON records
// scalar vs SIMD serving throughput side by side.
//
// A second, open-loop section drives the dynamic-batching ServingEngine
// with timed arrival traces (Poisson and bursty) at offered loads set
// relative to a measured capacity probe. Open-loop means arrivals are
// scheduled on a wall clock and do NOT wait for completions — exactly
// the regime where overload must surface as shedding/expiry rather than
// unbounded queueing, so the JSON records the engine's degradation
// curve (achieved qps, percentile latency, per-status counts).
//
// Emits BENCH_serving.json (schema tasd-bench-serving-v3; see
// docs/reproducing.md and docs/serving.md). Before timing, every
// layer's batched TASD output is checked bit-exact (`==`) against
// looping the single-RHS multiply of the same artifact — a
// wrong-but-fast batched path fails loudly here (non-zero exit).
//
// Usage: serving_throughput [output.json] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/serving_engine.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;

/// Batched outputs == per-RHS loops, for every layer of the compiled
/// artifact at one probe batch size: run_batch vs run for the bound
/// (TASD) kernels, plus the artifact's dense kernel batched vs per item
/// on the same weights (one rounding family per artifact — the policy
/// carries the resolved kernel names).
bool verify_bit_exact(const rt::CompiledNetwork& engine, std::size_t batch,
                      Index query_cols) {
  Rng rng(7001);
  const rt::ExecPolicy policy = engine.policy();
  bool ok = true;
  for (std::size_t i = 0; i < engine.layer_count(); ++i) {
    const auto& layer = engine.layer(i);
    std::vector<MatrixF> bs;
    for (std::size_t q = 0; q < batch; ++q)
      bs.push_back(random_dense(layer.k, query_cols, Dist::kNormalStd1, rng));

    const auto dense_batch = rt::dense_gemm_batch(layer.weight, bs, policy);
    for (std::size_t q = 0; q < batch; ++q)
      ok = ok && (dense_batch[q] == rt::dense_gemm(layer.weight, bs[q], policy));

    const auto bound_batch = engine.run_batch(i, bs);
    for (std::size_t q = 0; q < batch; ++q)
      ok = ok && (bound_batch[q] == engine.run(i, bs[q]));

    if (!ok) {
      std::fprintf(stderr, "** NOT BIT-EXACT at layer %s **\n",
                   layer.name.c_str());
      return false;
    }
  }
  return true;
}

struct KernelSetResult {
  std::string label;         ///< "scalar" | "avx2"
  std::string dense_kernel;  ///< resolved registry names
  std::string nm_kernel;
  Index plan_bytes = 0;
  Index artifact_bytes = 0;  ///< full replica footprint (weights + plans)
  double scaling_b16_over_b1 = 0.0;
  std::vector<rt::ServingThroughput> entries;
};

// --- Open-loop engine section ---------------------------------------

struct OpenLoopResult {
  std::string trace;       ///< "poisson" | "burst"
  double load_factor = 0.0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< ok completions / wall seconds
  double wall_s = 0.0;
  double mean_batch = 0.0;    ///< batched_requests / batches
  rt::ModelMetrics metrics;
};

/// Single synthetic 2:4 layer sized so one query is a fraction of a
/// millisecond: the trace granularity stays above timer jitter while
/// the whole section finishes in seconds.
dnn::NetworkWorkload open_loop_net() {
  dnn::NetworkWorkload net;
  net.name = "open-loop-2to4";
  net.sparse_weights = true;
  dnn::GemmWorkload l;
  l.name = "ol";
  l.m = 512;
  l.k = 1024;
  l.n = 32;
  l.weight_density = 0.1;
  l.weight_seed = 424;
  net.layers = {l};
  return net;
}

/// Arrival offsets (seconds from trace start) for `n` requests at mean
/// rate `qps`. Poisson: exponential inter-arrivals. Burst: groups of 8
/// back-to-back queries, groups spaced to preserve the mean rate.
std::vector<double> arrival_trace(const std::string& kind, std::size_t n,
                                  double qps, std::uint64_t seed) {
  std::vector<double> at(n);
  if (kind == "poisson") {
    std::mt19937_64 gen(seed);
    std::exponential_distribution<double> gap(qps);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += gap(gen);
      at[i] = t;
    }
  } else {  // burst
    const std::size_t group = 8;
    const double period = static_cast<double>(group) / qps;
    for (std::size_t i = 0; i < n; ++i)
      at[i] = static_cast<double>(i / group) * period;
  }
  return at;
}

/// Drive one trace through a fresh engine. Arrivals are scheduled on
/// the wall clock; when the submitter falls behind (bursts, overload)
/// every due request is submitted immediately — no closed-loop pacing.
OpenLoopResult run_open_loop(const rt::CompileOptions& copt,
                             const std::string& kind, double load_factor,
                             double capacity_qps, std::size_t n) {
  using std::chrono::duration;
  using std::chrono::steady_clock;

  rt::ServingOptions sopt;
  sopt.max_queue_depth = 64;
  sopt.overflow = rt::ServingOptions::Overflow::kReject;
  sopt.admission_window = std::chrono::microseconds(2000);
  sopt.max_batch = 16;
  sopt.default_deadline = std::chrono::milliseconds(100);
  rt::ServingEngine engine(
      rt::compile(open_loop_net(), {TasdConfig::parse("2:4")}, copt), sopt);

  const double offered = capacity_qps * load_factor;
  const auto arrivals = arrival_trace(kind, n, offered, 4242);
  Rng rng(4243);
  std::vector<MatrixF> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    queries.push_back(
        random_dense(engine.model(0).layer(0).k, 1, Dist::kNormalStd1, rng));

  std::vector<std::future<rt::Response>> futures;
  futures.reserve(n);
  const auto start = steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start + duration<double>(arrivals[i]));
    futures.push_back(engine.submit(0, std::move(queries[i])));
  }
  for (auto& f : futures) (void)f.get();
  const double wall_s = duration<double>(steady_clock::now() - start).count();
  engine.drain();

  OpenLoopResult r;
  r.trace = kind;
  r.load_factor = load_factor;
  r.offered_qps = offered;
  r.wall_s = wall_s;
  r.metrics = engine.metrics(0);
  r.achieved_qps = static_cast<double>(r.metrics.ok) / wall_s;
  r.mean_batch = r.metrics.batches > 0
                     ? static_cast<double>(r.metrics.batched_requests) /
                           static_cast<double>(r.metrics.batches)
                     : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  const auto net = dnn::resnet34_workload(true, 42);
  const std::vector<std::optional<TasdConfig>> configs(
      net.layers.size(), TasdConfig::parse("2:4"));

  const std::vector<std::size_t> batch_sizes =
      quick ? std::vector<std::size_t>{1, 16}
            : std::vector<std::size_t>{1, 4, 16, 64};

  // One artifact per kernel set; compiling both reuses every plan
  // through the PlanCache, so the second compile decomposes nothing.
  std::vector<std::pair<std::string, rt::CompileOptions>> kernel_sets;
  {
    rt::CompileOptions scalar;
    scalar.query_cols = 1;
    scalar.measure.repeats = quick ? 1 : 3;
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
  for (const auto& [label, opt] : kernel_sets) {
    std::fprintf(stderr, "[%s] compiling %s (%zu layers)...\n", label.c_str(),
                 net.name.c_str(), net.layers.size());
    const auto engine = rt::compile(net, configs, opt);
    // Every layer is configured here; if the artifact silently bound the
    // dense kernel somewhere, run_batch == run below would hold
    // trivially and the sweep would report dense timings as TASD.
    if (engine.configured_count() != net.layers.size()) {
      std::fprintf(stderr,
                   "** only %zu of %zu layers bound a TASD series **\n",
                   engine.configured_count(), net.layers.size());
      return 1;
    }

    std::fprintf(stderr,
                 "[%s] verifying batched == per-RHS single multiply...\n",
                 label.c_str());
    if (!verify_bit_exact(engine, 5, opt.query_cols)) {
      std::fprintf(stderr,
                   "** batched path is not bit-exact; skipping the timing "
                   "sweep **\n");
      return 1;
    }

    // Dedicated warmup for this kernel set before any timed row: the
    // smallest batch once through the full sweep machinery, so pool
    // spin-up and cold weights are paid here and not by the first row.
    (void)engine.serving_throughput({batch_sizes.front()});

    std::fprintf(stderr, "[%s] measuring %zu batch sizes...\n", label.c_str(),
                 batch_sizes.size());
    KernelSetResult r;
    r.label = label;
    r.dense_kernel = engine.options().dense_kernel;
    r.nm_kernel = engine.options().nm_kernel;
    r.plan_bytes = engine.plan_bytes();
    r.artifact_bytes = engine.artifact_bytes();
    r.entries = engine.serving_throughput(batch_sizes);

    double qps_b1 = 0.0, qps_b16 = 0.0;
    for (const auto& e : r.entries) {
      if (e.batch_size == 1) qps_b1 = e.tasd_qps;
      if (e.batch_size == 16) qps_b16 = e.tasd_qps;
      std::fprintf(stderr,
                   "[%s] batch %3zu  dense %8.2f ms (%7.2f qps)  tasd "
                   "%8.2f ms (%7.2f qps)  speedup %.3fx\n",
                   label.c_str(), e.batch_size, e.dense_ms, e.dense_qps,
                   e.tasd_ms, e.tasd_qps, e.dense_ms / e.tasd_ms);
    }
    r.scaling_b16_over_b1 = qps_b1 > 0.0 ? qps_b16 / qps_b1 : 0.0;
    results.push_back(std::move(r));
  }

  // Open-loop ServingEngine section, on the best available kernel set.
  // Capacity is probed as the engine's own batched service rate (16
  // queries per run_batch), so "1.5x load" is a true overload no matter
  // how much batching helps.
  const rt::CompileOptions& ol_opt = kernel_sets.back().second;
  std::fprintf(stderr, "[open-loop] probing batched capacity...\n");
  const auto probe =
      rt::compile(open_loop_net(), {TasdConfig::parse("2:4")}, ol_opt);
  Rng probe_rng(4244);
  std::vector<MatrixF> probe_batch;
  for (int i = 0; i < 16; ++i)
    probe_batch.push_back(
        random_dense(probe.layer(0).k, 1, Dist::kNormalStd1, probe_rng));
  const double batch_ms = time_ms_min(
      quick ? 2 : 5, [&] { (void)probe.run_batch(0, probe_batch); });
  const double capacity_qps = 16.0 * 1000.0 / batch_ms;
  std::fprintf(stderr, "[open-loop] capacity ~%.0f qps (batch-16 in %.3f ms)\n",
               capacity_qps, batch_ms);

  const std::size_t ol_requests = quick ? 120 : 400;
  std::vector<OpenLoopResult> open_loop;
  for (const char* kind : {"poisson", "burst"}) {
    for (const double load : {0.6, 1.5}) {
      auto r = run_open_loop(ol_opt, kind, load, capacity_qps, ol_requests);
      std::fprintf(stderr,
                   "[open-loop] %-7s load %.1fx  offered %7.0f qps  achieved "
                   "%7.0f qps  ok %llu shed %llu expired %llu failed %llu  "
                   "p95 %.2f ms  mean batch %.1f\n",
                   r.trace.c_str(), r.load_factor, r.offered_qps,
                   r.achieved_qps,
                   static_cast<unsigned long long>(r.metrics.ok),
                   static_cast<unsigned long long>(r.metrics.shed),
                   static_cast<unsigned long long>(r.metrics.expired),
                   static_cast<unsigned long long>(r.metrics.failed),
                   r.metrics.p95_ms, r.mean_batch);
      open_loop.push_back(std::move(r));
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::perror("serving_throughput: cannot open output");
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-serving-v3\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n", net.name.c_str());
  std::fprintf(f, "  \"config\": \"2:4\",\n");
  std::fprintf(f, "  \"query_cols\": 1,\n");
  std::fprintf(f, "  \"bit_exact\": true,\n");
  std::fprintf(f, "  \"kernel_sets\": [\n");
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    std::fprintf(f, "    {\"kernels\": \"%s\", \"dense_kernel\": \"%s\", ",
                 r.label.c_str(), r.dense_kernel.c_str());
    std::fprintf(f, "\"nm_kernel\": \"%s\", \"plan_bytes\": %zu, ",
                 r.nm_kernel.c_str(), static_cast<std::size_t>(r.plan_bytes));
    std::fprintf(f, "\"artifact_bytes\": %zu,\n",
                 static_cast<std::size_t>(r.artifact_bytes));
    std::fprintf(f, "     \"tasd_qps_batch16_over_batch1\": %.6f,\n",
                 r.scaling_b16_over_b1);
    std::fprintf(f, "     \"entries\": [\n");
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const auto& e = r.entries[i];
      std::fprintf(
          f,
          "      {\"batch\": %zu, \"dense_ms\": %.6f, \"tasd_ms\": %.6f, "
          "\"dense_qps\": %.6f, \"tasd_qps\": %.6f}%s\n",
          e.batch_size, e.dense_ms, e.tasd_ms, e.dense_qps, e.tasd_qps,
          i + 1 < r.entries.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", s + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"open_loop\": {\n");
  std::fprintf(f, "    \"workload\": \"open-loop-2to4\",\n");
  std::fprintf(f, "    \"kernels\": \"%s\",\n",
               kernel_sets.back().first.c_str());
  std::fprintf(f, "    \"capacity_probe_qps\": %.2f,\n", capacity_qps);
  std::fprintf(f, "    \"requests_per_trace\": %zu,\n", ol_requests);
  std::fprintf(f,
               "    \"engine\": {\"max_batch\": 16, \"max_queue_depth\": 64, "
               "\"admission_window_us\": 2000, \"deadline_ms\": 100, "
               "\"overflow\": \"reject\"},\n");
  std::fprintf(f, "    \"entries\": [\n");
  for (std::size_t i = 0; i < open_loop.size(); ++i) {
    const auto& r = open_loop[i];
    const auto& m = r.metrics;
    std::fprintf(
        f,
        "      {\"trace\": \"%s\", \"load_factor\": %.2f, "
        "\"offered_qps\": %.2f, \"achieved_qps\": %.2f, \"wall_s\": %.4f,\n"
        "       \"ok\": %llu, \"shed\": %llu, \"expired\": %llu, "
        "\"failed\": %llu, \"invalid\": %llu,\n"
        "       \"batches\": %llu, \"mean_batch\": %.3f, "
        "\"degraded_batches\": %llu, \"peak_queue_depth\": %zu,\n"
        "       \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
        r.trace.c_str(), r.load_factor, r.offered_qps, r.achieved_qps,
        r.wall_s, static_cast<unsigned long long>(m.ok),
        static_cast<unsigned long long>(m.shed),
        static_cast<unsigned long long>(m.expired),
        static_cast<unsigned long long>(m.failed),
        static_cast<unsigned long long>(m.invalid),
        static_cast<unsigned long long>(m.batches), r.mean_batch,
        static_cast<unsigned long long>(m.degraded_batches),
        m.peak_queue_depth, m.p50_ms, m.p95_ms, m.p99_ms,
        i + 1 < open_loop.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);

  for (const auto& r : results)
    std::fprintf(stderr, "%s: batch-16 tasd qps / batch-1: %.2fx\n",
                 r.label.c_str(), r.scaling_b16_over_b1);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
