// Compile-once / execute-many runtime sessions — the deployment story of
// the paper's real-system experiment (§5.5, Fig. 16) as an explicit
// artifact, in the spirit of TensorRT engines and DeepSparse compiled
// pipelines: TASDER picks per-layer series offline, rt::compile() binds
// them into an immutable CompiledNetwork, and an inference runtime
// executes that artifact repeatedly.
//
// The artifact owns, per layer, the materialized weight, the bound kernel
// (dense, or a TasdSeriesGemm over the layer's DecompositionPlan) and the
// execution policy / thread-pool binding. Plans are prewarmed through the
// process-wide PlanCache exactly once, at compile time: run(), run_batch()
// and measure() never decompose anything.
//
// Contract (see DESIGN.md § Compile-once / execute-many):
//  * Immutability — a CompiledNetwork has no mutating methods; every
//    execution of the same artifact sees the same plans and weights.
//  * Bit-exactness — run()/run_batch() are the same kernels the free
//    execution paths use (TasdSeriesGemm::multiply / multiply_batch,
//    dense_gemm / dense_gemm_batch), so outputs are bit-identical to those
//    paths under the artifact's resolved policy() at every thread count.
//    Kernel *selection* ("auto" → AVX2 vs scalar) picks a rounding family
//    (see docs/kernels.md); within a family results never vary.
//  * Plan prewarm — compile() performs at most one decomposition per
//    configured layer (zero when the PlanCache already holds the plan);
//    executing the artifact performs zero additional decompositions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/plan_cache.hpp"
#include "dnn/layer_binding.hpp"
#include "dnn/workloads.hpp"
#include "runtime/nm_gemm.hpp"

namespace tasd::rt {

/// Measurement knobs shared by every timed execution surface: the
/// per-layer measure() and compile itself.
struct MeasureOptions {
  /// Timing repetitions; the minimum is reported.
  int repeats = 3;
  std::uint64_t data_seed = 99;
  /// Kernel parallelism. 0 = the process default (TASD_NUM_THREADS, or
  /// hardware concurrency when unset); any other value builds a dedicated
  /// pool of that size, owned by the artifact. Timings change with the
  /// thread count, kernel *results* never do.
  std::size_t num_threads = 0;
  /// Reuse decompositions from the process-wide PlanCache: repeated
  /// compiles of the same weights (TASDER sweeps, bench reruns) perform
  /// zero additional decompositions.
  bool use_plan_cache = true;
};

/// Measured timings of one layer.
struct LayerTiming {
  std::string name;
  Index m = 0, k = 0, n = 0;
  double dense_ms = 0.0;
  double tasd_ms = 0.0;              ///< 0 when no series configured
  std::optional<TasdConfig> config;
  double kept_nnz_fraction = 0.0;    ///< stored values / total positions

  /// Best available time for this layer. A deployment engineer who
  /// measures both engines keeps the dense kernel when the TASD series
  /// turns out slower, so a configured layer contributes the minimum of
  /// the two timings, never a slower-than-dense TASD time.
  [[nodiscard]] double best_ms() const {
    return config ? std::min(tasd_ms, dense_ms) : dense_ms;
  }

  /// Wall-clock saved by converting this layer (dense_ms - best_ms():
  /// zero for unconfigured or slower-than-dense layers, never negative).
  [[nodiscard]] double conversion_savings_ms() const {
    return dense_ms - best_ms();
  }
};

/// Compose total network latency with the first `num_converted` layers
/// (by the given order) using their best_ms() — a converted layer keeps
/// the dense kernel when TASD measured slower — and the rest dense.
/// `order` holds indices into `timings`. With the conversion_order()
/// ranking, latency is non-increasing in num_converted.
double network_latency_ms(const std::vector<LayerTiming>& timings,
                          const std::vector<std::size_t>& order,
                          std::size_t num_converted);

/// Order layers by descending wall-clock saved (conversion_savings_ms):
/// the order in which a deployment engineer would convert layers.
/// Layers that are not convertible (no config) or would lose time
/// (tasd_ms >= dense_ms) save exactly zero and therefore rank after
/// every layer with a real saving — never ahead of them.
std::vector<std::size_t> conversion_order(
    const std::vector<LayerTiming>& timings);

/// Everything fixed at compile time: measurement knobs, the measurement
/// shape shrink, the serving query width, and kernel selection.
struct CompileOptions {
  MeasureOptions measure;
  /// measure() shrinks every layer's N (positions) by this factor so
  /// per-layer measurements finish quickly; speed-up ratios are
  /// unaffected because both kernels scale linearly in N. The division
  /// rounds to nearest with a floor of min(n, n_divisor - 1), so layers
  /// with fewer than n_divisor positions are not shrunk at all and the
  /// measured N is monotone in the layer's N — truncating tiny layers to
  /// n=1 would distort the dense/TASD ratio Fig. 16 depends on.
  Index n_divisor = 4;
  /// Right-hand-side columns of one serving query (1 = GEMV-style
  /// serving, the latency-bound case batching amortizes). Validated
  /// (>= 1); no kernel selection reads it.
  Index query_cols = 1;
  /// Kernel selection by registry name, one per operand kind; each binds
  /// both single-RHS and batch calls of every layer. "auto" (the
  /// default) resolves at compile() time through GemmDispatch::best_*()
  /// — the AVX2/FMA kernel when runtime detection registered it, the
  /// scalar tiled kernel otherwise — and the artifact's policy() reports
  /// the resolved name. Empty = the GemmDispatch registry defaults
  /// (always scalar).
  std::string dense_kernel = "auto";
  std::string nm_kernel = "auto";
  /// Opt-in activation guard: run()/run_batch() reject NaN/Inf inputs
  /// with a tasd::Error (kInvalidArgument) naming the offending batch
  /// item, instead of silently producing garbage. Costs one pass over
  /// each input; off by default for trusted callers.
  bool validate_inputs = false;
};

class CompiledNetwork;

namespace detail {

/// One layer the way the artifact loader (src/artifact/) reconstructs
/// it: weight plus an already-built DecompositionPlan instead of a
/// decomposition request. `plan` null means dense (config must be
/// nullopt) or, on the compile() path, "decompose per CompileOptions".
struct PreboundLayer {
  std::string name;
  Index positions = 0;
  MatrixF weight;
  std::optional<TasdConfig> config;
  std::shared_ptr<const DecompositionPlan> plan;
};

/// Assemble an artifact from layers whose plans may be prebuilt: a
/// layer carrying a plan binds it directly — zero decompositions — and
/// a configured layer without one decomposes exactly as compile() does.
/// Kernel names resolve through GemmDispatch at assembly time ("auto" →
/// best_*()), so a deserialized network re-binds the fastest kernels
/// registered on the *loading* host. This is the single constructor
/// path behind both rt::compile() and rt::load_artifact(), and the one
/// place a kernel is chosen: every layer binds the network-wide
/// resolution.
CompiledNetwork assemble_network(std::string name,
                                 std::vector<PreboundLayer> layers,
                                 const CompileOptions& opt);

}  // namespace detail

/// An immutable executable artifact: per-layer bound kernels (dense or
/// TASD series), shared decomposition plans, and the execution policy.
/// Move-only; all methods are const.
class CompiledNetwork {
 public:
  /// One bound layer: the owned weight, the chosen series (if any), its
  /// shared plan, and the full-scale GEMM shape for measurement.
  struct BoundLayer {
    std::string name;
    Index m = 0, k = 0, n = 0;  ///< C(m x n) = W(m x k) * X(k x n)
    MatrixF weight;
    std::optional<TasdConfig> config;
    /// Shared, prewarmed decomposition; null for dense layers.
    std::shared_ptr<const DecompositionPlan> plan;
    /// Bound structured kernel; engaged exactly when config is.
    std::optional<TasdSeriesGemm> series;
    double kept_nnz_fraction = 0.0;  ///< stored values / total positions
    /// The resolved kernel of the layer's one slot (N:M when `series`
    /// is bound, dense otherwise): `kernel` for run(), `batch_kernel` for
    /// run_batch(). Both always equal the network-wide resolution in
    /// policy(); they are kept per layer so reports can list bindings.
    std::string kernel;
    std::string batch_kernel;
  };

  CompiledNetwork(CompiledNetwork&&) = default;
  CompiledNetwork& operator=(CompiledNetwork&&) = default;
  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const BoundLayer& layer(std::size_t i) const;
  [[nodiscard]] const CompileOptions& options() const { return opt_; }

  /// Layers with a bound TASD series.
  [[nodiscard]] std::size_t configured_count() const;

  /// Compressed plan footprint in bytes across configured layers — the
  /// per-artifact memory a serving process holds resident.
  [[nodiscard]] Index plan_bytes() const;

  /// Honest full footprint of everything the artifact store serializes
  /// for this network: weight bytes + compressed term buffers
  /// (plan_bytes) + per-plan metadata (shape, config patterns, quality
  /// stats). plan_bytes() alone understates what a replica must hold
  /// (and what save_artifact writes) because the weights dominate it.
  [[nodiscard]] Index artifact_bytes() const;

  /// Check one right-hand side against layer(layer_index)'s contract:
  /// the row count always, and value finiteness when the artifact was
  /// compiled with validate_inputs. Throws tasd::Error(kInvalidArgument)
  /// naming the layer (and `item`, when not npos — the batch position
  /// the serving path reports). run()/run_batch() apply the same checks;
  /// this entry point lets a batching front-end validate per request so
  /// one poisoned input fails that request instead of its whole batch.
  void validate_input(std::size_t layer_index, const MatrixF& input,
                      std::size_t item = static_cast<std::size_t>(-1)) const;

  /// Execute one layer on a dense right-hand side through its bound
  /// kernel under policy(): the TASD series (TasdSeriesGemm::multiply)
  /// when configured, the dense kernel otherwise. Bit-identical to those
  /// paths at every thread count. `input` must have layer(i).k rows.
  [[nodiscard]] MatrixF run(std::size_t layer_index,
                            const MatrixF& input) const;

  /// Execute one layer on a batch of right-hand sides (ragged widths
  /// allowed) through the same bound kernel, sharing the layer's one
  /// plan across every item. Bit-identical to looping run() over the
  /// items, at every thread count and batch size.
  [[nodiscard]] std::vector<MatrixF> run_batch(
      std::size_t layer_index, std::span<const MatrixF> inputs) const;

  /// True when the artifact's layers form an executable chain: every
  /// layer's reduction dimension equals the previous layer's output
  /// dimension (layer(L).k == layer(L-1).m), so run_network() is defined.
  /// Trivially true for empty and single-layer artifacts.
  [[nodiscard]] bool is_chain() const;

  /// Execute the whole network on one input: feed `input` through layer
  /// 0, its output through layer 1, and so on — the strictly sequential
  /// whole-network forward. Requires is_chain(). Bit-identical to calling
  /// run() layer by layer (it is exactly that loop).
  [[nodiscard]] MatrixF run_network(const MatrixF& input) const;

  /// Execute the whole network on a batch of inputs (ragged widths
  /// allowed), layer-major with a full barrier per layer: every item
  /// finishes layer L (one run_batch call) before any item starts layer
  /// L+1. This is the batched whole-network path; outputs are
  /// bit-identical to looping run_network() per item at every thread
  /// count (the kernels' batched-equals-looped contract).
  [[nodiscard]] std::vector<MatrixF> run_network_batch(
      std::span<const MatrixF> inputs) const;

  /// Measure every layer (dense kernel, and the TASD series where bound)
  /// at the compile-time n_divisor shrink: the Fig. 16 per-layer report.
  /// Feed the result to conversion_order() / network_latency_ms().
  [[nodiscard]] std::vector<LayerTiming> measure() const;

  /// The network-wide execution policy (the artifact's pool binding and
  /// resolved kernel-name options) — what run(), run_batch(), measure()
  /// and the dense-vs-TASD comparison paths all run under.
  [[nodiscard]] ExecPolicy policy() const;

 private:
  friend CompiledNetwork detail::assemble_network(
      std::string name, std::vector<detail::PreboundLayer> layers,
      const CompileOptions& opt);
  CompiledNetwork() = default;

  std::string name_;
  CompileOptions opt_;
  std::vector<BoundLayer> layers_;
  /// Dedicated pool when opt_.measure.num_threads != 0 (unique_ptr so
  /// the ExecPolicy pool pointer survives moves of the artifact).
  std::unique_ptr<ThreadPool> pool_;
};

/// Compile a full-scale workload under per-layer configs (entries align
/// with net.layers; nullopt = dense) into an executable artifact,
/// prewarming every configured layer's plan exactly once.
CompiledNetwork compile(const dnn::NetworkWorkload& net,
                        const std::vector<std::optional<TasdConfig>>& configs,
                        const CompileOptions& opt = {});

/// Compile explicit layer bindings (e.g. dnn::bind_layers of a model the
/// TASDER facade optimized — see tasder::compile).
CompiledNetwork compile(std::string name,
                        std::vector<dnn::LayerBinding> layers,
                        const CompileOptions& opt = {});

}  // namespace tasd::rt
