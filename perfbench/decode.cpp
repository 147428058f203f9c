// decode-serve-* workloads: the transformer decode step served by
// rt::ServingEngine under an open-loop Poisson schedule at a fixed
// offered rate. One request is six chained hops (one per layer); each
// hop's callback submits the next hop with the previous hop's output.
#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "runtime/serving_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tasd;

namespace {

constexpr Index kHidden = 256;
constexpr Index kKvLen = 512;
constexpr std::size_t kHops = 6;
/// A request that completes later than this after its due time misses;
/// it is also every hop's deadline (ServingOptions::default_deadline).
constexpr std::chrono::milliseconds kLatencyLimit{50};
constexpr int kSetupReps = 9;
constexpr std::size_t kDistinctInputs = 64;
constexpr std::size_t kWarmRequests = 200;
constexpr std::size_t kDirectRequests = 200;

struct Hop {
  Clock::time_point submit;
  double queue_ms = 0.0;    ///< Response::queue_ms
  double latency_ms = 0.0;  ///< Response::latency_ms
};

Clock::time_point plus_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

struct Request {
  Clock::time_point due, end;
  rt::RequestStatus status = rt::RequestStatus::kFailed;
  bool output_ok = false;
  std::uint64_t span = 0;  ///< request span id in the traced phase
  std::array<Hop, kHops> hops;
};

/// Everything one open-loop phase's callbacks touch. The callbacks of
/// request i write only requests[i]; completion is published through
/// `mu`, which also orders those writes before the generator reads them.
struct PhaseCtx {
  rt::ServingEngine* engine = nullptr;
  const std::vector<MatrixF>* expected = nullptr;
  Tracer* tracer = nullptr;  ///< null in the untraced phase
  std::vector<Request> requests;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
};

struct HopDone {
  PhaseCtx* ctx;
  std::size_t req;
  std::size_t hop;

  void operator()(rt::Response resp) const {
    const auto now = Clock::now();
    Request& q = ctx->requests[req];
    Hop& h = q.hops[hop];
    h.queue_ms = resp.queue_ms;
    h.latency_ms = resp.latency_ms;
    if (ctx->tracer) {
      const auto queued = plus_ms(h.submit, resp.queue_ms);
      const auto resolved = plus_ms(h.submit, resp.latency_ms);
      const auto id =
          ctx->tracer->record({"serving.hop", 0, q.span, req + 1, h.submit, now});
      ctx->tracer->record({"serving.queue", 0, id, req + 1, h.submit, queued});
      ctx->tracer->record({"serving.exec", 0, id, req + 1, queued, resolved});
    }
    if (resp.status == rt::RequestStatus::kOk && hop + 1 < kHops) {
      q.hops[hop + 1].submit = Clock::now();
      ctx->engine->submit_async(0, hop + 1, std::move(resp.output),
                                HopDone{ctx, req, hop + 1});
      return;
    }
    q.end = now;
    q.status = resp.status;
    q.output_ok = resp.status == rt::RequestStatus::kOk &&
                  same_bits(resp.output, (*ctx->expected)[req % kDistinctInputs]);
    if (ctx->tracer)
      ctx->tracer->record({"request", q.span, 0, req + 1, q.due, now});
    // Notify under the lock: once the generator sees the last request
    // done it may reuse or destroy ctx, so nothing touches ctx after.
    std::lock_guard<std::mutex> lock(ctx->mu);
    ++ctx->done;
    ctx->cv.notify_one();
  }
};

/// Send the schedule and wait for every request to end. Returns false
/// when requests were still open long after the schedule ended; the
/// engine is then drained, which joins the batcher, so no callback runs
/// after this returns and the open requests keep their kFailed status.
bool run_schedule(PhaseCtx& ctx, const std::vector<double>& offsets_s,
                  const std::vector<MatrixF>& inputs, Clock::time_point start) {
  ctx.requests.assign(offsets_s.size(), Request{});
  ctx.done = 0;
  for (std::size_t i = 0; i < offsets_s.size(); ++i) {
    Request& q = ctx.requests[i];
    q.due = plus_ms(start, offsets_s[i] * 1e3);
    if (ctx.tracer) q.span = ctx.tracer->next_id();
    std::this_thread::sleep_until(q.due);
    q.hops[0].submit = Clock::now();
    ctx.engine->submit_async(0, 0, inputs[i % kDistinctInputs],
                             HopDone{&ctx, i, 0});
  }
  std::unique_lock<std::mutex> lock(ctx.mu);
  const bool finished = ctx.cv.wait_for(lock, std::chrono::seconds(60), [&] {
    return ctx.done == ctx.requests.size();
  });
  if (!finished) {
    lock.unlock();
    ctx.engine->drain();
  }
  return finished;
}

struct PhaseStats {
  std::vector<double> latency_ms;  ///< ok requests, from due time
  std::size_t sent = 0, ok = 0, good = 0, shed = 0, expired = 0, failed = 0,
              invalid = 0;
  double goodput = 0.0;  ///< good requests / (last end - schedule start)
  std::vector<double> lag_ms;
};

PhaseStats summarize(const PhaseCtx& ctx, Clock::time_point start) {
  PhaseStats s;
  s.sent = ctx.requests.size();
  Clock::time_point last = start;
  for (const Request& q : ctx.requests) {
    last = std::max(last, q.end);
    s.lag_ms.push_back(ms_between(q.due, q.hops[0].submit));
    switch (q.status) {
      case rt::RequestStatus::kOk:
        if (!q.output_ok) {
          ++s.invalid;
          break;
        }
        ++s.ok;
        s.latency_ms.push_back(ms_between(q.due, q.end));
        if (q.end - q.due <= kLatencyLimit) ++s.good;
        break;
      case rt::RequestStatus::kShed: ++s.shed; break;
      case rt::RequestStatus::kDeadline: ++s.expired; break;
      case rt::RequestStatus::kInvalid: ++s.invalid; break;
      case rt::RequestStatus::kFailed: ++s.failed; break;
    }
  }
  s.goodput = static_cast<double>(s.good) / (ms_between(start, last) / 1e3);
  return s;
}

std::string phase_json(const PhaseStats& s, double rate) {
  return "{\"rate_per_s\":" + std::to_string(rate) +
         ",\"sent\":" + std::to_string(s.sent) +
         ",\"ok\":" + std::to_string(s.ok) +
         ",\"within_limit\":" + std::to_string(s.good) +
         ",\"shed\":" + std::to_string(s.shed) +
         ",\"expired\":" + std::to_string(s.expired) +
         ",\"failed\":" + std::to_string(s.failed) +
         ",\"invalid\":" + std::to_string(s.invalid) + "}";
}

}  // namespace

Outcome run_decode_serve(const Args& args, double rate_per_s) {
  Outcome o;
  Result& r = o.result;
  Tracer tracer;
  const auto origin = Clock::now();
  const auto net = dnn::decode_step_workload(kHidden, kKvLen, true, args.seed);
  std::vector<std::optional<TasdConfig>> configs;
  for (const auto& l : net.layers)
    configs.push_back(l.weight_density < 1.0
                          ? std::optional(TasdConfig::parse("2:4"))
                          : std::nullopt);
  const auto opt = compile_options();
  rt::ServingOptions sopt;
  sopt.overflow = rt::ServingOptions::Overflow::kReject;
  sopt.default_deadline = kLatencyLimit;

  // ---- setup: compile from an empty PlanCache + start the engine ----
  std::unique_ptr<rt::ServingEngine> engine;
  std::vector<double> setup_ms, compile_ms;
  std::uint64_t decompositions = 0, hits = 0, evictions = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    plan_cache().clear();
    const auto before = plan_cache().stats();
    const auto t0 = Clock::now();
    auto cn = rt::compile(net, configs, opt);
    const auto t1 = Clock::now();
    engine = std::make_unique<rt::ServingEngine>(std::move(cn), sopt);
    const auto t2 = Clock::now();
    const auto after = plan_cache().stats();
    decompositions = after.decompositions - before.decompositions;
    hits = after.hits - before.hits;
    evictions = after.evictions - before.evictions;
    setup_ms.push_back(ms_between(t0, t2));
    compile_ms.push_back(ms_between(t0, t1));
    if (args.trace) {
      const auto id = tracer.record({"setup", 0, 0, 0, t0, t2});
      tracer.record({"runtime.compile", 0, id, 0, t0, t1});
    }
  }
  const rt::CompiledNetwork& cn = engine->model(0);
  describe_network(cn, o.info);

  // ---- correctness gate ----
  std::size_t want_configured = 0;
  for (const auto& c : configs) want_configured += c.has_value();
  if (cn.configured_count() != want_configured)
    r.fail("configured_count() " + std::to_string(cn.configured_count()) +
           " != " + std::to_string(want_configured));
  std::vector<MatrixF> inputs, expected;
  for (std::size_t p = 0; p < kDistinctInputs; ++p) {
    inputs.push_back(random_input(kHidden, args.seed * 7919ULL + p));
    expected.push_back(cn.run_network(inputs.back()));
  }
  {
    // Per-layer oracle on the chained activations of the first input.
    std::vector<MatrixF> layer_in = {inputs[0]};
    for (std::size_t i = 0; i + 1 < cn.layer_count(); ++i)
      layer_in.push_back(cn.run(i, layer_in.back()));
    check_layers_against_oracle(cn, layer_in, r);
    for (std::size_t i = 0; i < cn.layer_count(); ++i) {
      const std::vector<MatrixF> pair = {layer_in[i], layer_in[i]};
      const auto got = cn.run_batch(i, pair);
      if (!same_bits(got[0], cn.run(i, layer_in[i])) ||
          !same_bits(got[1], got[0]))
        r.fail("run_batch != run on layer " + cn.layer(i).name);
    }
  }
  for (std::size_t p = 0; p < 4; ++p) {
    MatrixF x = inputs[p];
    for (std::size_t hop = 0; hop < kHops; ++hop) {
      auto resp = engine->submit(hop, std::move(x)).get();
      if (resp.status != rt::RequestStatus::kOk) {
        r.fail(std::string("engine hop failed: ") + rt::to_string(resp.status));
        break;
      }
      x = std::move(resp.output);
    }
    if (r.correct && !same_bits(x, expected[p]))
      r.fail("engine chained result differs from run_network");
  }
  if (!r.correct) return o;

  // ---- warm-up: a short untimed schedule through the engine ----
  PhaseCtx ctx;
  ctx.engine = engine.get();
  ctx.expected = &expected;
  {
    const auto offs = arrival_offsets_s(
        rate_per_s, static_cast<double>(kWarmRequests) / rate_per_s,
        args.seed + 17);
    run_schedule(ctx, offs, inputs, Clock::now());
  }

  // ---- timed open loop at the fixed rate ----
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto offsets = arrival_offsets_s(rate_per_s, untraced_s, args.seed);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  if (!run_schedule(ctx, offsets, inputs, start))
    r.fail("requests still open 60 s after the schedule ended");
  const PhaseStats s = summarize(ctx, start);
  r.attempted += s.sent;
  r.failed += s.sent - s.ok;
  if (s.invalid > 0) r.fail("engine returned outputs that differ from run_network");
  const Tail t = windowed_tail(s.latency_ms);
  const double untraced_p50 = median(s.latency_ms);
  o.values["setup_s"] = median(setup_ms) / 1e3;
  o.values["latency_ms_p50"] = untraced_p50;
  o.values["latency_ms_tail"] = t.value;
  o.values["qps"] = s.goodput;
  o.values["peak_rss_mb"] = peak_rss_mb();
  o.info.emplace_back("latency_limit_ms",
                      std::to_string(kLatencyLimit.count()));
  o.info.emplace_back("phase", phase_json(s, rate_per_s));
  o.info.emplace_back("latency_samples",
                      "{\"n\":" + std::to_string(t.samples) +
                          ",\"tail_percentile\":" +
                          std::to_string(t.percentile) + "}");
  if (!args.trace) return o;

  // ---- traced run ----
  o.values["dnn.materialize_ms"] = materialize_all_ms(net);
  o.values["runtime.compile_ms"] = median(compile_ms);
  o.values["core.decompositions"] = static_cast<double>(decompositions);
  o.values["core.plan_cache_hits"] = static_cast<double>(hits);
  o.values["core.plan_cache_evictions"] = static_cast<double>(evictions);

  // Direct run(i) of each hop, outside the engine: the kernel time a
  // request needs on the N:M and on the dense layers.
  {
    std::vector<double> nm_ms, dense_ms;
    for (std::size_t n = 0; n < kDirectRequests; ++n) {
      MatrixF x = inputs[n % kDistinctInputs];
      double nm = 0.0, dense = 0.0;
      for (std::size_t i = 0; i < cn.layer_count(); ++i) {
        const auto a = Clock::now();
        x = cn.run(i, x);
        const auto b = Clock::now();
        (cn.layer(i).config ? nm : dense) += ms_between(a, b);
        tracer.record({cn.layer(i).config ? "direct.nm" : "direct.dense", 0, 0,
                       0, a, b});
      }
      nm_ms.push_back(nm);
      dense_ms.push_back(dense);
    }
    o.values["runtime.run_ms.nm"] = median(nm_ms);
    o.values["runtime.run_ms.dense"] = median(dense_ms);
  }

  const auto m0 = engine->metrics();
  const auto e0 = engine->engine_metrics();
  ctx.tracer = &tracer;
  const auto traced_offsets =
      arrival_offsets_s(rate_per_s, args.seconds / 2, args.seed + 1);
  const auto traced_start = Clock::now() + std::chrono::milliseconds(5);
  if (!run_schedule(ctx, traced_offsets, inputs, traced_start))
    r.fail("traced requests still open 60 s after the schedule ended");
  const auto m1 = engine->metrics();
  const auto e1 = engine->engine_metrics();
  const PhaseStats ts = summarize(ctx, traced_start);
  r.attempted += ts.sent;
  r.failed += ts.sent - ts.ok;
  o.info.emplace_back("traced_phase", phase_json(ts, rate_per_s));

  std::vector<double> queue_ms, exec_ms, req_queue, req_exec;
  for (const Request& q : ctx.requests) {
    if (q.status != rt::RequestStatus::kOk) continue;
    double rq = 0.0, re = 0.0;
    for (const Hop& h : q.hops) {
      queue_ms.push_back(h.queue_ms);
      exec_ms.push_back(h.latency_ms - h.queue_ms);
      rq += h.queue_ms;
      re += h.latency_ms - h.queue_ms;
    }
    req_queue.push_back(rq);
    req_exec.push_back(re);
  }
  const double d_batches = static_cast<double>(m1.batches - m0.batches);
  const double busy = e1.busy_ms - e0.busy_ms, idle = e1.idle_ms - e0.idle_ms;
  o.values["serving.queue_ms_p50"] = median(queue_ms);
  o.values["serving.queue_ms_tail"] = windowed_tail(queue_ms).value;
  o.values["serving.exec_ms_p50"] = median(exec_ms);
  o.values["serving.mean_batch"] =
      d_batches > 0 ? static_cast<double>(m1.batched_requests -
                                          m0.batched_requests) / d_batches
                    : 0.0;
  o.values["serving.occupancy"] = busy + idle > 0 ? busy / (busy + idle) : 0.0;
  o.values["serving.shed"] = static_cast<double>(m1.shed - m0.shed);
  o.values["serving.expired"] = static_cast<double>(m1.expired - m0.expired);
  o.values["serving.failed"] = static_cast<double>(m1.failed - m0.failed);
  o.values["serving.peak_queue_depth"] =
      static_cast<double>(m1.peak_queue_depth);
  o.values["gen.lag_ms_tail"] = windowed_tail(ts.lag_ms).value;

  const double traced_p50 = median(ts.latency_ms);
  const double accounted =
      median(req_queue) + median(req_exec) + median(ts.lag_ms);
  o.values["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50;
  o.values["trace.residual_frac"] = (untraced_p50 - accounted) / untraced_p50;
  o.values["fail_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  write_chrome_trace(args.out_dir + "/trace-" + args.workload + ".json",
                     tracer.spans(), origin, {{"workload", args.workload}});
  return o;
}

}  // namespace perfbench
