// ResNet-34 workloads: r34-tasder-gemv (TASDER search + compile, then
// single-RHS queries through run) and r34-artifact-b16 (artifact load,
// then 16-RHS batches through run_batch).
#include <filesystem>
#include <optional>

#include "accel/arch.hpp"
#include "artifact/artifact.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "tasder/hw_profile.hpp"
#include "tasder/workload_opt.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tasd;

namespace {

constexpr int kTasderSetupReps = 3;
constexpr int kLoadSetupReps = 5;
constexpr std::size_t kDistinctQueries = 8;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kDistinctBatches = 2;
constexpr int kWarmQueries = 3;

/// One query: a right-hand side per layer. ResNet layers do not chain
/// (a conv layer's K is its im2col depth), so each layer gets its own.
using Query = std::vector<MatrixF>;

Query make_query(const dnn::NetworkWorkload& net, std::uint64_t seed,
                 std::size_t q) {
  Query out;
  out.reserve(net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i)
    out.push_back(random_input(net.layers[i].k,
                               seed * 1000003ULL + q * 1009ULL + i));
  return out;
}

PlanCacheStats delta(const PlanCacheStats& a, const PlanCacheStats& b) {
  return {b.hits - a.hits, b.misses - a.misses,
          b.decompositions - a.decompositions, b.evictions - a.evictions,
          b.preloads - a.preloads};
}

void put_cache_delta(Outcome& o, const PlanCacheStats& d) {
  o.values["core.decompositions"] = static_cast<double>(d.decompositions);
  o.values["core.plan_cache_hits"] = static_cast<double>(d.hits);
  o.values["core.plan_cache_evictions"] = static_cast<double>(d.evictions);
}

/// Latency and throughput of a closed-loop phase.
struct Phase {
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
  std::uint64_t items = 0;  ///< queries completed (batch items count each)
};

void put_latency(Outcome& o, const Phase& p) {
  const Tail t = windowed_tail(p.latency_ms);
  o.values["latency_ms_p50"] = median(p.latency_ms);
  o.values["latency_ms_tail"] = t.value;
  o.values["qps"] = static_cast<double>(p.items) / p.elapsed_s;
  o.info.emplace_back(
      "latency_samples",
      "{\"n\":" + std::to_string(t.samples) +
          ",\"tail_percentile\":" + std::to_string(t.percentile) + "}");
}

/// Per-query median of the summed self time of each stage's spans.
/// `kind` is the span-name prefix ("run", "dense_ref", "run_batch", ...).
std::map<std::string, double> stage_self_medians(
    const std::vector<Span>& spans, const std::vector<double>& self,
    const std::string& kind) {
  std::map<std::uint64_t, std::map<std::string, double>> per_request;
  const std::string prefix = kind + ".";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name.rfind(prefix, 0) != 0) continue;
    per_request[spans[i].request][spans[i].name.substr(prefix.size())] +=
        self[i];
  }
  std::map<std::string, double> out;
  for (const auto& stage : kStages) {
    std::vector<double> v;
    for (const auto& [req, stages] : per_request) {
      const auto it = stages.find(stage);
      v.push_back(it == stages.end() ? 0.0 : it->second);
    }
    out[stage] = median(v);
  }
  return out;
}

std::vector<double> durations_of(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> v;
  for (const auto& s : spans)
    if (s.name == name) v.push_back(ms_between(s.start, s.end));
  return v;
}

/// Per-layer stage names, precomputed so spans carry them cheaply.
std::vector<std::string> span_names(const dnn::NetworkWorkload& net,
                                    const std::string& kind) {
  std::vector<std::string> names;
  for (const auto& l : net.layers) names.push_back(kind + "." + stage_of(l.name));
  return names;
}

}  // namespace

Outcome run_r34_tasder_gemv(const Args& args) {
  Outcome o;
  Result& r = o.result;
  Tracer tracer;
  const auto origin = Clock::now();
  const auto net = dnn::resnet34_workload(true, args.seed);
  const auto hw = tasder::hw_profile_from(accel::ArchConfig::ttc_vegeta_m8());
  const auto opt = compile_options();

  // ---- setup: TASDER search + compile from an empty PlanCache ----
  std::optional<rt::CompiledNetwork> cn;
  std::vector<std::optional<TasdConfig>> configs;
  std::vector<double> setup_ms, search_ms, compile_ms;
  PlanCacheStats setup_delta;
  for (int rep = 0; rep < kTasderSetupReps; ++rep) {
    cn.reset();
    plan_cache().clear();
    const auto before = plan_cache().stats();
    const auto t0 = Clock::now();
    const auto execs = tasder::optimize_workload(net, hw);
    const auto t1 = Clock::now();
    configs.clear();
    for (const auto& e : execs) configs.push_back(e.weight_cfg);
    cn.emplace(rt::compile(net, configs, opt));
    const auto t2 = Clock::now();
    setup_delta = delta(before, plan_cache().stats());
    setup_ms.push_back(ms_between(t0, t2));
    search_ms.push_back(ms_between(t0, t1));
    compile_ms.push_back(ms_between(t1, t2));
    if (args.trace) {
      const auto id = tracer.record({"setup", 0, 0, 0, t0, t2});
      tracer.record({"tasder.optimize_workload", 0, id, 0, t0, t1});
      tracer.record({"runtime.compile", 0, id, 0, t1, t2});
    }
  }
  describe_network(*cn, o.info);

  // ---- correctness gate ----
  std::size_t want_configured = 0;
  for (const auto& c : configs) want_configured += c.has_value();
  if (cn->configured_count() != want_configured)
    r.fail("configured_count() " + std::to_string(cn->configured_count()) +
           " != " + std::to_string(want_configured) + " chosen configs");
  std::vector<Query> queries;
  for (std::size_t q = 0; q < kDistinctQueries; ++q)
    queries.push_back(make_query(net, args.seed, q));
  check_layers_against_oracle(*cn, queries[0], r);
  std::vector<std::vector<MatrixF>> expected(kDistinctQueries);
  for (std::size_t q = 0; q < kDistinctQueries; ++q)
    for (std::size_t i = 0; i < cn->layer_count(); ++i)
      expected[q].push_back(cn->run(i, queries[q][i]));
  for (std::size_t i = 0; i < cn->layer_count(); ++i) {
    const std::vector<MatrixF> pair = {queries[0][i], queries[1][i]};
    const auto got = cn->run_batch(i, pair);
    if (!same_bits(got[0], expected[0][i]) || !same_bits(got[1], expected[1][i]))
      r.fail("run_batch != run on layer " + cn->layer(i).name);
  }
  if (!r.correct) return o;

  // ---- timed closed loop: one client, one query at a time ----
  const auto run_query = [&](const rt::CompiledNetwork& net_, const Query& q,
                             const std::vector<MatrixF>* want) {
    bool ok = true;
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const MatrixF y = net_.run(i, q[i]);
      if (want && !same_bits(y, (*want)[i])) ok = false;
    }
    return ok;
  };
  for (int w = 0; w < kWarmQueries; ++w) (void)run_query(*cn, queries[0], nullptr);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase phase;
  {
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration<double>(untraced_s);
    for (std::size_t n = 0; Clock::now() < stop; ++n) {
      const std::size_t q = n % kDistinctQueries;
      const auto t0 = Clock::now();
      const bool ok = run_query(*cn, queries[q], &expected[q]);
      const auto t1 = Clock::now();
      ++r.attempted;
      if (!ok) {
        ++r.failed;
        r.fail("query output differs from the gated output");
        continue;
      }
      phase.latency_ms.push_back(ms_between(t0, t1));
      ++phase.items;
    }
    phase.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  }
  const double untraced_p50 = median(phase.latency_ms);
  o.values["setup_s"] = median(setup_ms) / 1e3;
  put_latency(o, phase);
  o.values["peak_rss_mb"] = peak_rss_mb();
  if (!args.trace) return o;

  // ---- traced run: TASD queries interleaved with the dense reference ----
  o.values["dnn.materialize_ms"] = materialize_all_ms(net);
  o.values["tasder.search_ms"] = median(search_ms);
  o.values["runtime.compile_ms"] = median(compile_ms);
  put_cache_delta(o, setup_delta);
  const auto dense = rt::compile(
      net, std::vector<std::optional<TasdConfig>>(net.layers.size()), opt);
  const auto run_names = span_names(net, "run");
  const auto dense_names = span_names(net, "dense_ref");
  const auto traced_query = [&](const rt::CompiledNetwork& net_, const Query& q,
                                const char* query_name,
                                const std::vector<std::string>& names,
                                std::uint64_t req) {
    const std::uint64_t id = tracer.next_id();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const auto a = Clock::now();
      (void)net_.run(i, q[i]);
      tracer.record({names[i], 0, id, req, a, Clock::now()});
    }
    tracer.record({query_name, id, 0, req, t0, Clock::now()});
  };
  (void)run_query(dense, queries[0], nullptr);
  {
    const auto stop =
        Clock::now() + std::chrono::duration<double>(args.seconds / 2);
    for (std::uint64_t n = 0; Clock::now() < stop; ++n) {
      const Query& q = queries[n % kDistinctQueries];
      traced_query(*cn, q, "query", run_names, 2 * n + 1);
      traced_query(dense, q, "dense_query", dense_names, 2 * n + 2);
    }
  }
  const auto spans = tracer.spans();
  const auto self = self_ms(spans);
  double accounted = 0.0;
  for (const auto& [stage, ms] : stage_self_medians(spans, self, "run")) {
    o.values["runtime.run_ms." + stage] = ms;
    accounted += ms;
  }
  for (const auto& [stage, ms] : stage_self_medians(spans, self, "dense_ref"))
    o.values["runtime.dense_ref_ms." + stage] = ms;
  const double traced_p50 = median(durations_of(spans, "query"));
  o.values["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50;
  o.values["trace.residual_frac"] = (untraced_p50 - accounted) / untraced_p50;
  o.values["fail_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  write_chrome_trace(args.out_dir + "/trace-r34-tasder-gemv.json", spans,
                     origin, {{"workload", "r34-tasder-gemv"}});
  return o;
}

Outcome run_r34_artifact_b16(const Args& args) {
  Outcome o;
  Result& r = o.result;
  Tracer tracer;
  const auto origin = Clock::now();
  const auto net = dnn::resnet34_workload(true, args.seed);
  const auto opt = compile_options();
  const std::vector<std::optional<TasdConfig>> configs(
      net.layers.size(), TasdConfig::parse("2:4"));
  const std::string path = args.out_dir + "/r34-2of4.tasdart";

  // The build under test compiles the network and writes the artifact;
  // the reference outputs of the gate come from this compiled network.
  std::vector<Query> batches;  // kDistinctBatches x kBatch queries
  for (std::size_t q = 0; q < kDistinctBatches * kBatch; ++q)
    batches.push_back(make_query(net, args.seed, q));
  // packed[b][i]: the kBatch right-hand sides of batch b for layer i.
  std::vector<std::vector<std::vector<MatrixF>>> packed(kDistinctBatches);
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    packed[b].resize(net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i)
      for (std::size_t q = b * kBatch; q < (b + 1) * kBatch; ++q)
        packed[b][i].push_back(batches[q][i]);
  }
  std::vector<std::vector<MatrixF>> expected(batches.size());
  std::size_t compiled_configured = 0;
  double compile_ms = 0.0, save_ms = 0.0;
  {
    const auto t0 = Clock::now();
    const auto cn = rt::compile(net, configs, opt);
    const auto t1 = Clock::now();
    rt::save_artifact(cn, path);
    const auto t2 = Clock::now();
    compile_ms = ms_between(t0, t1);
    save_ms = ms_between(t1, t2);
    if (args.trace) {
      tracer.record({"runtime.compile", 0, 0, 0, t0, t1});
      tracer.record({"artifact.save", 0, 0, 0, t1, t2});
    }
    compiled_configured = cn.configured_count();
    for (std::size_t q = 0; q < batches.size(); ++q)
      for (std::size_t i = 0; i < cn.layer_count(); ++i)
        expected[q].push_back(cn.run(i, batches[q][i]));
  }
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(path));

  // ---- setup: load the artifact into a process with an empty cache ----
  std::optional<rt::CompiledNetwork> net_loaded;
  std::vector<double> load_ms;
  PlanCacheStats load_delta;
  for (int rep = 0; rep < kLoadSetupReps; ++rep) {
    net_loaded.reset();
    plan_cache().clear();
    const auto before = plan_cache().stats();
    const auto t0 = Clock::now();
    net_loaded.emplace(rt::load_artifact(path, opt));
    const auto t1 = Clock::now();
    load_delta = delta(before, plan_cache().stats());
    load_ms.push_back(ms_between(t0, t1));
    if (args.trace) tracer.record({"artifact.load", 0, 0, 0, t0, t1});
  }
  std::filesystem::remove(path);
  const rt::CompiledNetwork& cn = *net_loaded;
  describe_network(cn, o.info);

  // ---- correctness gate ----
  if (load_delta.decompositions != 0)
    r.fail("load_artifact made " + std::to_string(load_delta.decompositions) +
           " decompositions");
  if (cn.configured_count() != net.layers.size() ||
      cn.configured_count() != compiled_configured)
    r.fail("configured_count() " + std::to_string(cn.configured_count()) +
           " != " + std::to_string(net.layers.size()) + " 2:4 layers");
  check_layers_against_oracle(cn, batches[0], r);
  // Batched outputs of the loaded artifact == run() of the compiled one.
  const auto run_batches = [&](const rt::CompiledNetwork& n, std::size_t b) {
    bool ok = true;
    for (std::size_t i = 0; i < n.layer_count(); ++i) {
      const auto out = n.run_batch(i, packed[b][i]);
      for (std::size_t j = 0; j < kBatch; ++j)
        if (!same_bits(out[j], expected[b * kBatch + j][i])) ok = false;
    }
    return ok;
  };
  for (std::size_t b = 0; b < kDistinctBatches; ++b)
    if (!run_batches(cn, b))
      r.fail("loaded run_batch differs from compiled run (batch " +
             std::to_string(b) + ")");
  if (!r.correct) return o;

  // ---- timed closed loop of 16-RHS batches ----
  for (int w = 0; w < kWarmQueries; ++w) (void)run_batches(cn, 0);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase phase;
  {
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration<double>(untraced_s);
    for (std::size_t n = 0; Clock::now() < stop; ++n) {
      const auto t0 = Clock::now();
      const bool ok = run_batches(cn, n % kDistinctBatches);
      const auto t1 = Clock::now();
      r.attempted += kBatch;
      if (!ok) {
        r.failed += kBatch;
        r.fail("batch output differs from the compiled network's run");
        continue;
      }
      phase.latency_ms.push_back(ms_between(t0, t1));
      phase.items += kBatch;
    }
    phase.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  }
  const double untraced_p50 = median(phase.latency_ms);
  o.values["setup_s"] = median(load_ms) / 1e3;
  put_latency(o, phase);
  o.values["peak_rss_mb"] = peak_rss_mb();
  if (!args.trace) return o;

  // ---- traced run: loaded batches, then the dense batch reference ----
  o.values["dnn.materialize_ms"] = materialize_all_ms(net);
  o.values["runtime.compile_ms"] = compile_ms;
  o.values["artifact.save_ms"] = save_ms;
  o.values["artifact.load_ms"] = median(load_ms);
  o.values["artifact.file_bytes"] = file_bytes;
  o.values["artifact.load_mb_s"] = file_bytes / 1e6 / (median(load_ms) / 1e3);
  put_cache_delta(o, load_delta);
  const auto dense = rt::compile(
      net, std::vector<std::optional<TasdConfig>>(net.layers.size()), opt);
  const auto batch_names = span_names(net, "run_batch");
  const auto traced_batch = [&](const rt::CompiledNetwork& n, std::size_t b,
                                const char* name,
                                const std::vector<std::string>* names,
                                std::uint64_t req) {
    const std::uint64_t id = tracer.next_id();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n.layer_count(); ++i) {
      const auto a = Clock::now();
      (void)n.run_batch(i, packed[b][i]);
      if (names) tracer.record({(*names)[i], 0, id, req, a, Clock::now()});
    }
    tracer.record({name, id, 0, req, t0, Clock::now()});
  };
  for (std::size_t i = 0; i < dense.layer_count(); ++i)
    (void)dense.run_batch(i, packed[0][i]);
  {
    const auto stop =
        Clock::now() + std::chrono::duration<double>(args.seconds / 2);
    for (std::uint64_t n = 0; Clock::now() < stop; ++n) {
      traced_batch(cn, n % kDistinctBatches, "batch", &batch_names, 2 * n + 1);
      traced_batch(dense, n % kDistinctBatches, "dense_batch", nullptr,
                   2 * n + 2);
    }
  }
  const auto spans = tracer.spans();
  const auto self = self_ms(spans);
  double accounted = 0.0;
  for (const auto& [stage, ms] : stage_self_medians(spans, self, "run_batch")) {
    o.values["runtime.run_batch_ms." + stage] = ms;
    accounted += ms;
  }
  o.values["runtime.dense_batch_ref_ms"] =
      median(durations_of(spans, "dense_batch"));
  const double traced_p50 = median(durations_of(spans, "batch"));
  o.values["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50;
  o.values["trace.residual_frac"] = (untraced_p50 - accounted) / untraced_p50;
  o.values["fail_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  write_chrome_trace(args.out_dir + "/trace-r34-artifact-b16.json", spans,
                     origin, {{"workload", "r34-artifact-b16"}});
  return o;
}

}  // namespace perfbench
