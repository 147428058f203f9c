// Fault-tolerant dynamic-batching serving front-end over CompiledNetwork
// — the request path that cashes in the batched kernels' throughput for
// real traffic (perfbench's decode-serve workloads drive it open loop),
// hardened so every failure is contained to the request that caused it.
//
// Shape: producers submit(model, layer, input[, deadline]) from any
// thread and get a std::future<Response>; one batcher thread dequeues
// the head request, holds an admission window open to coalesce
// same-(model, layer) requests into one run_batch() call (up to
// max_batch), and resolves every request's future with a definite
// status. There is no path that leaves a future unresolved: overload
// sheds, expiry fails with kDeadline, execution faults fail with the
// mapped status, and drain()/the destructor flush or fail whatever is
// still queued.
//
// Robustness contract (see DESIGN.md § Serving robustness contract and
// docs/serving.md):
//  * Deadlines — a request's deadline is checked when the batcher
//    dequeues it: an expired request completes with kDeadline and is
//    never executed. Deadlines never cancel work mid-kernel.
//  * Backpressure — the queue is bounded (max_queue_depth). When full,
//    Overflow::kReject resolves the new request with kShed immediately
//    (load shedding); Overflow::kBlock blocks the submitting thread
//    until space frees or the engine drains.
//  * Fault containment — each request is validated individually before
//    batching (shape always; NaN/Inf when the artifact was compiled
//    with validate_inputs), so a poisoned input fails only its own
//    future. If run_batch itself throws (a throwing layer, an injected
//    fault, an allocation failure), the engine degrades gracefully:
//    it retries each admitted request alone via run(), so only requests
//    that fail on their own resolve kFailed. The batcher thread and the
//    process survive every per-request failure.
//  * Shutdown — drain() stops admission, flushes the queue through the
//    normal path (deadline expiry still applies; admission windows are
//    skipped so the flush is prompt), resolves everything, and joins
//    the batcher. The destructor drains. Both are idempotent.
//  * Metrics — per-model counters (submitted/ok/invalid/expired/shed/
//    failed, batches, degraded batches, queue depth & peak) and
//    completion-latency percentiles (p50/p95/p99) over a bounded
//    window, plus ok-qps since engine start.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "runtime/compiled_network.hpp"

namespace tasd::rt {

/// Terminal status of one serving request. Futures always resolve with
/// a Response carrying one of these; they never carry exceptions.
enum class RequestStatus {
  kOk,        ///< executed; Response::output holds the result
  kInvalid,   ///< rejected by per-request validation (shape, NaN/Inf…)
  kDeadline,  ///< expired in queue; never executed
  kShed,      ///< load-shed (queue full under kReject, or draining)
  kFailed,    ///< execution failed even in isolation
};

const char* to_string(RequestStatus status);

struct ServingOptions {
  /// Bound on queued (admitted, not yet dequeued) requests.
  std::size_t max_queue_depth = 256;
  /// Policy when a submit finds the queue full.
  enum class Overflow {
    kReject,  ///< resolve the new request with kShed immediately
    kBlock,   ///< block the submitter until space frees (or drain)
  };
  Overflow overflow = Overflow::kReject;
  /// How long the batcher holds the head request waiting for batchmates
  /// (same model + layer). Zero = no coalescing wait: execute whatever
  /// is already queued.
  std::chrono::microseconds admission_window{200};
  /// Largest coalesced batch per run_batch call.
  std::size_t max_batch = 16;
  /// Deadline applied to requests submitted without one, measured from
  /// submit time. Zero = no deadline.
  std::chrono::microseconds default_deadline{0};
  /// Completion latencies kept per model for the percentile report.
  std::size_t latency_window = 4096;
};

/// What a request's future resolves to.
struct Response {
  RequestStatus status = RequestStatus::kFailed;
  MatrixF output;            ///< engaged only when status == kOk
  std::string error;         ///< diagnostic when status != kOk
  double queue_ms = 0.0;     ///< submit → dequeue (0 when shed at submit)
  double latency_ms = 0.0;   ///< submit → resolution
  std::size_t batch_size = 0;  ///< coalesced batch it executed in (0 = never ran)
};

/// Engine-wide batcher accounting: where the single batcher thread's
/// wall clock went. Busy time covers dequeue + execute of coalesced
/// groups; idle time covers waiting for work or for the admission
/// window. occupancy = busy / (busy + idle) — the pipeline-occupancy
/// number that makes an overlap win (or a starved batcher) observable;
/// see docs/serving.md § Metrics.
struct EngineMetrics {
  double busy_ms = 0.0;
  double idle_ms = 0.0;
  double occupancy = 0.0;        ///< 0 when the batcher has not run yet
  std::uint64_t groups = 0;      ///< coalesced groups executed
};

/// Counters and latency digest for one resident model.
struct ModelMetrics {
  std::string model;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t invalid = 0;
  std::uint64_t expired = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;           ///< run_batch calls executed
  std::uint64_t batched_requests = 0;  ///< requests those calls served
  std::uint64_t degraded_batches = 0;  ///< fell back to per-request run()
  std::size_t queue_depth = 0;         ///< this model's requests queued now
  std::size_t peak_queue_depth = 0;
  double qps = 0.0;      ///< ok completions / seconds since engine start
  double p50_ms = 0.0;   ///< completion latency percentiles of ok
  double p95_ms = 0.0;   ///< requests over the latency window
  double p99_ms = 0.0;
};

/// Concurrent dynamic-batching executor over one or more resident
/// CompiledNetwork artifacts. Thread-safe: submit() from any number of
/// threads; one internal batcher thread executes. Not movable (the
/// batcher thread holds `this`).
class ServingEngine {
 public:
  explicit ServingEngine(CompiledNetwork model, ServingOptions opt = {});
  explicit ServingEngine(std::vector<CompiledNetwork> models,
                         ServingOptions opt = {});
  ~ServingEngine();  // drains

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueue one query against models()[model_index]'s layer_index.
  /// `deadline` (from now) overrides ServingOptions::default_deadline;
  /// zero means no deadline. The returned future always resolves with a
  /// definite Response — it never carries an exception. model_index out
  /// of range is a caller contract violation and throws immediately;
  /// everything else (bad layer, bad shape, poisoned values, overload,
  /// expiry, kernel failure) resolves through the future's status.
  std::future<Response> submit(
      std::size_t model_index, std::size_t layer_index, MatrixF input,
      std::optional<std::chrono::microseconds> deadline = std::nullopt);

  /// Single-model convenience: submit against models()[0].
  std::future<Response> submit(
      std::size_t layer_index, MatrixF input,
      std::optional<std::chrono::microseconds> deadline = std::nullopt);

  /// A completion callback: invoked exactly once with the request's
  /// definite Response. Callbacks must not throw; a throwing callback
  /// is caught and reported to stderr, never propagated.
  using Callback = std::function<void(Response)>;

  /// Continuation-style submit: like submit(), but the Response is
  /// delivered to `on_done` instead of a future, so a caller with many
  /// requests in flight burns zero blocked threads waiting on .get().
  /// The callback runs on the batcher thread (or inline on the
  /// submitting thread when the request is shed at submit time), so it
  /// must be brief and must not call drain() or block on other
  /// futures/submissions of the same engine. Every admission, deadline,
  /// overflow, and fault rule of submit() applies unchanged — including
  /// Overflow::kBlock backpressure blocking the submitting thread.
  void submit_async(
      std::size_t model_index, std::size_t layer_index, MatrixF input,
      Callback on_done,
      std::optional<std::chrono::microseconds> deadline = std::nullopt);

  /// Single-model convenience: submit_async against models()[0].
  void submit_async(
      std::size_t layer_index, MatrixF input, Callback on_done,
      std::optional<std::chrono::microseconds> deadline = std::nullopt);

  /// Stop admitting, flush or fail everything still queued, join the
  /// batcher. Idempotent; called by the destructor. After drain(),
  /// submit() resolves every request with kShed.
  void drain();

  [[nodiscard]] std::size_t model_count() const { return nets_.size(); }
  [[nodiscard]] const CompiledNetwork& model(std::size_t i) const;
  [[nodiscard]] const ServingOptions& options() const { return opt_; }

  /// Queued-but-not-dequeued requests right now (all models).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Snapshot of one model's counters and latency digest.
  [[nodiscard]] ModelMetrics metrics(std::size_t model_index = 0) const;

  /// Snapshot of the batcher's busy/idle accounting (all models).
  [[nodiscard]] EngineMetrics engine_metrics() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::promise<Response> promise;  ///< unused in callback mode
    Callback callback;               ///< empty in future mode
    std::size_t model = 0;
    std::size_t layer = 0;
    MatrixF input;
    Clock::time_point submit_time;
    std::optional<Clock::time_point> deadline;
  };

  /// Mutable per-model counters. One entry per nets_ entry; every
  /// field is guarded by mu_ through the enclosing stats_ annotation.
  struct ModelStats {
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t invalid = 0;
    std::uint64_t expired = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    std::uint64_t degraded_batches = 0;
    std::size_t queued = 0;
    std::size_t peak_queued = 0;
    /// Ring of ok-completion latencies for the percentile digest.
    std::vector<double> latencies;
    std::size_t latency_next = 0;
  };

  void batcher_main() TASD_EXCLUDES(mu_);
  /// Shared admission path of submit()/submit_async(): enqueue or shed.
  void enqueue(Request req) TASD_EXCLUDES(mu_);
  /// Execute one coalesced group (dequeue-time expiry, per-request
  /// validation, batched execution with per-request fallback). Called
  /// without locks held; takes them as needed for metrics.
  void execute_group(std::vector<Request> group) TASD_EXCLUDES(mu_);
  /// Resolve one request and record its terminal status (locks mu_).
  void resolve(Request& req, Response response) TASD_EXCLUDES(mu_);
  /// Queued requests with this (model, layer) — the admission window's
  /// "how full is the forming batch" probe.
  [[nodiscard]] std::size_t matching_locked(std::size_t model,
                                            std::size_t layer) const
      TASD_REQUIRES(mu_);

  ServingOptions opt_;
  /// Resident artifacts. The vector and each CompiledNetwork are
  /// immutable after construction, so execution reads them without
  /// mu_; every mutable per-model counter lives in stats_ instead.
  std::vector<CompiledNetwork> nets_;
  Clock::time_point start_time_;  ///< const after construction

  mutable Mutex mu_;
  CondVar work_cv_;   ///< batcher waits: work or stop
  CondVar space_cv_;  ///< kBlock submitters wait: space
  std::deque<Request> queue_ TASD_GUARDED_BY(mu_);
  /// Parallel to nets_ (same index); sized once in the constructor.
  std::vector<ModelStats> stats_ TASD_GUARDED_BY(mu_);
  /// Batcher wall-clock accounting: time spent waiting on work_cv_ vs
  /// dequeuing + executing groups.
  double batcher_idle_ms_ TASD_GUARDED_BY(mu_) = 0.0;
  double batcher_busy_ms_ TASD_GUARDED_BY(mu_) = 0.0;
  std::uint64_t groups_ TASD_GUARDED_BY(mu_) = 0;
  bool draining_ TASD_GUARDED_BY(mu_) = false;
  /// Serializes the join (drain vs destructor). Never taken while mu_
  /// is held, so no ordering edge with mu_ exists.
  Mutex drain_mu_;
  std::thread batcher_ TASD_GUARDED_BY(drain_mu_);
};

}  // namespace tasd::rt
