// Kernel microbenchmarks: dense vs N:M-compressed vs TASD-series GEMM
// across the parallel execution layer's thread counts AND the table's
// kernel implementations (scalar tiled vs AVX2/FMA side by side), plus
// decomposition and plan-cache throughput.
//
// Emits BENCH_kernels.json (schema tasd-bench-kernels-v3; see
// docs/reproducing.md). Every parallel measurement is checked bit-exact
// against the serial result of the *same* implementation before it is
// recorded — a wrong-but-fast kernel fails loudly here. The AVX2 rows
// additionally record speedup_vs_scalar: their win over the scalar
// implementation at the same thread count (the acceptance number of the
// SIMD backend).
//
// It also gates the compiled engine's headline property: on a 2:4
// network of K=512, 128-column layers, every layer's compressed time
// from CompiledNetwork::measure() must beat dense by at least 5 %
// (tasd_ms < 0.95 * dense_ms). The gate is a wall-clock assertion, so it
// lives here rather than in ctest; it runs in --quick mode too and a
// failure makes the process exit non-zero.
//
// Usage: micro_kernels [output.json] [--quick]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;

struct Entry {
  std::string kernel;  ///< operation family: dense_gemm / nm_gemm / ...
  std::string impl;    ///< kernel-table name of the kernel executing it
  Index m = 0, k = 0, n = 0;
  std::string config;
  double sparsity = 0.0;
  std::size_t threads = 1;
  double ms = 0.0;
  double gops = 0.0;
  double speedup_vs_serial = 1.0;
  double speedup_vs_scalar = 1.0;  ///< same op/shape/threads, scalar impl
  bool bit_exact = true;
};

/// Run `make_result` at every thread count, timing it and checking the
/// output bit-exact against the serial (1-thread) result of the same
/// implementation. `scalar_ms` maps threads -> the scalar impl's time for
/// this op/shape (filled by the scalar sweep, consumed by SIMD sweeps).
void sweep(const std::string& kernel, const std::string& impl, Index m,
           Index k, Index n, const std::string& config, double sparsity,
           double macs, int repeats,
           const std::vector<std::size_t>& thread_counts,
           const std::function<MatrixF(rt::ExecPolicy&)>& make_result,
           std::map<std::size_t, double>* scalar_ms,
           std::vector<Entry>& out) {
  const bool is_scalar_baseline = scalar_ms != nullptr && scalar_ms->empty();
  double serial_ms = 0.0;
  MatrixF serial_result;
  for (std::size_t threads : thread_counts) {
    rt::ThreadPool pool(threads);
    rt::ExecPolicy policy;
    policy.pool = &pool;
    MatrixF result = make_result(policy);
    const double ms =
        time_ms_min(repeats, [&] { result = make_result(policy); });
    Entry e{kernel, impl, m,  k,  n,   config, sparsity, threads,
            ms,     macs / (ms * 1e6),  // 1e9 ops/s from ms
            1.0,    1.0, true};
    if (threads == thread_counts.front()) {
      serial_ms = ms;
      serial_result = std::move(result);
    } else {
      e.speedup_vs_serial = serial_ms / ms;
      e.bit_exact = (result == serial_result);
    }
    if (scalar_ms != nullptr) {
      if (is_scalar_baseline)
        (*scalar_ms)[threads] = ms;
      else if (auto it = scalar_ms->find(threads); it != scalar_ms->end())
        e.speedup_vs_scalar = it->second / ms;
    }
    std::fprintf(stderr,
                 "%-10s %-16s %4zux%-4zux%-4zu %-8s t=%zu  %8.3f ms"
                 "  %5.2fx scalar%s\n",
                 kernel.c_str(), impl.c_str(), static_cast<std::size_t>(m),
                 static_cast<std::size_t>(k), static_cast<std::size_t>(n),
                 config.empty() ? "-" : config.c_str(), threads, e.ms,
                 e.speedup_vs_scalar,
                 e.bit_exact ? "" : "  ** NOT BIT-EXACT **");
    out.push_back(std::move(e));
  }
}

void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::perror("micro_kernels: cannot open output");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-kernels-v3\",\n");
  std::fprintf(f, "  \"avx2_available\": %s,\n",
               avx2_available() ? "true" : "false");
  std::fprintf(f, "  \"entries\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"impl\": \"%s\", \"m\": %zu, \"k\": %zu, "
        "\"n\": %zu, \"config\": \"%s\", \"sparsity\": %.6f, "
        "\"threads\": %zu, \"ms\": %.6f, \"gops\": %.6f, "
        "\"speedup_vs_serial\": %.6f, \"speedup_vs_scalar\": %.6f, "
        "\"bit_exact\": %s}%s\n",
        e.kernel.c_str(), e.impl.c_str(), static_cast<std::size_t>(e.m),
        static_cast<std::size_t>(e.k), static_cast<std::size_t>(e.n),
        e.config.c_str(), e.sparsity, e.threads, e.ms, e.gops,
        e.speedup_vs_serial, e.speedup_vs_scalar,
        e.bit_exact ? "true" : "false", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Kernel implementations to sweep for one slot: the scalar parallel
/// kernel first (it seeds the speedup_vs_scalar baseline), then the
/// table's best kernel (AVX2) when that is a different one.
template <class Entry>
std::vector<Entry> impls_for(const Entry& scalar, const Entry& best) {
  std::vector<Entry> impls{scalar};
  if (best.fn != scalar.fn) impls.push_back(best);
  return impls;
}

/// The engine speed gate: two 2:4 layers (64x512 and 128x512 weights at
/// 10 % density, 128 columns) measured at full width through
/// CompiledNetwork::measure(). Returns false when any layer's TASD time
/// is not below 0.95x its dense time. Each layer's time is the minimum
/// over 8 measure() rounds of min-of-25 repeats: the rounds interleave
/// the dense and TASD timing windows, so one burst of host contention
/// cannot land on only one side of the comparison.
bool engine_speed_gate() {
  dnn::NetworkWorkload net;
  net.name = "engine-gate";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 64;
  l1.k = 512;
  l1.n = 128;
  l1.weight_density = 0.1;
  l1.weight_seed = 5;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.m = 128;
  l2.weight_seed = 6;
  net.layers = {l1, l2};

  rt::CompileOptions opt;
  opt.n_divisor = 1;
  opt.measure.repeats = 25;
  const std::vector<std::optional<TasdConfig>> cfgs{TasdConfig::parse("2:4"),
                                                    TasdConfig::parse("2:4")};
  const auto engine = rt::compile(net, cfgs, opt);
  std::vector<rt::LayerTiming> best = engine.measure();
  for (int round = 1; round < 8; ++round) {
    const auto timings = engine.measure();
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i].dense_ms = std::min(best[i].dense_ms, timings[i].dense_ms);
      best[i].tasd_ms = std::min(best[i].tasd_ms, timings[i].tasd_ms);
    }
  }
  bool ok = true;
  for (const auto& t : best) {
    const bool pass = t.tasd_ms < 0.95 * t.dense_ms;
    ok = ok && pass;
    std::fprintf(stderr,
                 "engine gate %s %zux%zux%zu 2:4: tasd %.3f ms vs dense "
                 "%.3f ms (%.2fx)%s\n",
                 t.name.c_str(), static_cast<std::size_t>(t.m),
                 static_cast<std::size_t>(t.k), static_cast<std::size_t>(t.n),
                 t.tasd_ms, t.dense_ms, t.dense_ms / t.tasd_ms,
                 pass ? "" : "  ** SLOWER THAN 0.95x DENSE **");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  // Minimum-of-repeats absorbs scheduler jitter; 5 keeps the scalar/AVX2
  // per-thread-count comparisons stable even on a loaded single-core box.
  const int repeats = quick ? 1 : 5;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<Index> gemm_sizes =
      quick ? std::vector<Index>{128, 256} : std::vector<Index>{256, 512, 1024};

  const auto dense_impls =
      impls_for(rt::lookup_dense("tiled-parallel"), rt::best_dense());
  const auto nm_impls =
      impls_for(rt::lookup_nm("row-parallel"), rt::best_nm());

  std::vector<Entry> entries;
  Rng rng(9001);

  // Dense GEMM (every MAC executed), scalar vs AVX2.
  for (Index n : gemm_sizes) {
    const MatrixF a = random_dense(n, n, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const auto& impl : dense_impls)
      sweep("dense_gemm", std::string(impl.name), n, n, n, "", 0.0,
            2.0 * static_cast<double>(n) * n * n, repeats, thread_counts,
            [&](rt::ExecPolicy& p) {
              p.dense_kernel = impl.fn;
              return rt::dense_gemm(a, b, p);
            },
            &scalar_ms, entries);
  }

  // 2:4-compressed GEMM over a 50 %-sparse operand, scalar vs AVX2.
  for (Index n : gemm_sizes) {
    const MatrixF dense = random_dense(n, n, Dist::kNormalStd1, rng);
    const auto d = decompose(dense, TasdConfig::parse("2:4"));
    const sparse::NMSparseMatrix a = d.terms[0].compressed();
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const auto& impl : nm_impls)
      sweep("nm_gemm", std::string(impl.name), n, n, n, "2:4", 0.5,
            2.0 * static_cast<double>(a.nnz()) * n, repeats, thread_counts,
            [&](rt::ExecPolicy& p) {
              p.nm_kernel = impl.fn;
              return rt::nm_gemm(a, b, p);
            },
            &scalar_ms, entries);
  }

  // TASD-series GEMM (4:8+1:8) over a 90 %-sparse operand, executed from
  // a cached DecompositionPlan exactly the way the engine runs it; the
  // series' term loop routes through the selected N:M kernel.
  for (Index n : gemm_sizes) {
    const MatrixF dense =
        random_unstructured(n, n, 0.1, Dist::kNormalStd1, rng);
    const auto plan =
        plan_cache().get_or_build(dense, TasdConfig::parse("4:8+1:8"));
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const auto& impl : nm_impls)
      sweep("tasd_gemm", std::string(impl.name), n, n, n, "4:8+1:8", 0.9,
            2.0 * static_cast<double>(plan->nnz()) * n, repeats,
            thread_counts,
            [&](rt::ExecPolicy& p) {
              p.nm_kernel = impl.fn;
              return rt::series_gemm(*plan, b, p);
            },
            &scalar_ms, entries);
  }

  // GEMV at serving width: one right-hand-side column on ResNet-34's s3
  // conv2 shape (512x4608, 95 % sparse), a 2:8 term alone and the 2:8+1:8
  // series. Each call is a fraction of a millisecond, so take the
  // minimum over 10x the repeats.
  {
    const Index m = 512, k = 4608;
    const int gemv_repeats = 10 * repeats;
    const MatrixF dense =
        random_unstructured(m, k, 0.05, Dist::kNormalStd1, rng);
    const MatrixF x = random_dense(k, 1, Dist::kNormalStd1, rng);
    const auto plan =
        plan_cache().get_or_build(dense, TasdConfig::parse("2:8+1:8"));
    const sparse::NMSparseMatrix& a = plan->terms[0];
    std::map<std::size_t, double> nm_scalar_ms, series_scalar_ms;
    for (const auto& impl : nm_impls) {
      sweep("nm_gemm", std::string(impl.name), m, k, 1, "2:8", 0.95,
            2.0 * static_cast<double>(a.nnz()), gemv_repeats, thread_counts,
            [&](rt::ExecPolicy& p) {
              p.nm_kernel = impl.fn;
              return rt::nm_gemm(a, x, p);
            },
            &nm_scalar_ms, entries);
      sweep("tasd_gemm", std::string(impl.name), m, k, 1, "2:8+1:8", 0.95,
            2.0 * static_cast<double>(plan->nnz()), gemv_repeats,
            thread_counts,
            [&](rt::ExecPolicy& p) {
              p.nm_kernel = impl.fn;
              return rt::series_gemm(*plan, x, p);
            },
            &series_scalar_ms, entries);
    }
  }

  // Decomposition throughput: cold build_plan vs plan-cache hit.
  {
    const Index sz = quick ? 256 : 1024;
    const auto cfg = TasdConfig::parse("4:8+1:8");
    const MatrixF m =
        random_unstructured(sz, sz, 0.3, Dist::kNormalStd1, rng);
    const double cold_ms = time_ms_min(repeats, [&] {
      const auto p = build_plan(m, cfg);
      (void)p;
    });
    entries.push_back({"decompose_cold", "-", sz, sz, 0, cfg.str(), 0.7, 1,
                       cold_ms, 0.0, 1.0, 1.0, true});
    plan_cache().get_or_build(m, cfg);  // warm
    const double hit_ms = time_ms_min(repeats, [&] {
      const auto p = plan_cache().get_or_build(m, cfg);
      (void)p;
    });
    entries.push_back({"decompose_cached", "-", sz, sz, 0, cfg.str(), 0.7, 1,
                       hit_ms, 0.0, cold_ms / std::max(hit_ms, 1e-9), 1.0,
                       true});
  }

  write_json(out_path, entries);
  const bool all_exact =
      std::all_of(entries.begin(), entries.end(),
                  [](const Entry& e) { return e.bit_exact; });
  std::fprintf(stderr, "wrote %s (%zu entries)%s\n", out_path.c_str(),
               entries.size(), all_exact ? "" : "  ** EXACTNESS FAILURES **");
  const bool gate = engine_speed_gate();
  return all_exact && gate ? 0 : 1;
}
