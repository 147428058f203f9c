#include "runtime/compiled_network.hpp"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {

double network_latency_ms(const std::vector<LayerTiming>& timings,
                          const std::vector<std::size_t>& order,
                          std::size_t num_converted) {
  TASD_CHECK_MSG(num_converted <= order.size(),
                 "num_converted exceeds layer count");
  std::vector<bool> converted(timings.size(), false);
  for (std::size_t i = 0; i < num_converted; ++i) {
    TASD_CHECK_MSG(order[i] < timings.size(),
                   "order[" << i << "] = " << order[i] << " out of range ("
                            << timings.size() << " layers)");
    converted[order[i]] = true;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    // A converted layer keeps the faster of its two measured engines.
    total += converted[i] ? t.best_ms() : t.dense_ms;
  }
  return total;
}

std::vector<std::size_t> conversion_order(
    const std::vector<LayerTiming>& timings) {
  std::vector<std::size_t> order(timings.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // conversion_savings_ms() is zero for unconfigured layers and for
  // configured layers whose TASD series measured slower than dense, so
  // neither can rank ahead of a layer with a real saving.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double save_a = timings[a].conversion_savings_ms();
    const double save_b = timings[b].conversion_savings_ms();
    if (save_a != save_b) return save_a > save_b;
    return a < b;
  });
  return order;
}

namespace {

/// Seed of the random right-hand sides measure() times.
constexpr std::uint64_t kMeasureSeed = 99;

/// The shrunk measurement width measure() uses for a layer with `n`
/// full-scale positions under a given n_divisor: rounded division with
/// a floor of min(n, n_divisor - 1) — monotone in n, never zero (see
/// CompileOptions::n_divisor).
Index measured_n(Index n, Index n_divisor) {
  return std::max<Index>({Index{1}, (n + n_divisor / 2) / n_divisor,
                          std::min<Index>(n, n_divisor - 1)});
}

}  // namespace

const CompiledNetwork::BoundLayer& CompiledNetwork::layer(
    std::size_t i) const {
  TASD_CHECK_MSG(i < layers_.size(), "layer index " << i << " out of range ("
                                                    << layers_.size()
                                                    << " layers)");
  return layers_[i];
}

std::size_t CompiledNetwork::configured_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_)
    if (l.plan) ++n;
  return n;
}

Index CompiledNetwork::plan_bytes() const {
  Index total = 0;
  for (const auto& l : layers_)
    if (l.plan) total += l.plan->storage_bytes();
  return total;
}

void CompiledNetwork::validate_input(std::size_t layer_index,
                                     const MatrixF& input,
                                     std::size_t item) const {
  const BoundLayer& l = layer(layer_index);
  const bool in_batch = item != static_cast<std::size_t>(-1);
  if (input.rows() != l.k) {
    std::ostringstream os;
    os << "layer '" << l.name << "' expects a " << l.k
       << "-row right-hand side, got " << input.rows() << "x" << input.cols();
    if (in_batch) os << " at item " << item;
    throw Error(Error::Code::kInvalidArgument, os.str());
  }
  if (!opt_.validate_inputs) return;
  const auto flat = input.flat();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (std::isfinite(flat[i])) continue;
    std::ostringstream os;
    os << "layer '" << l.name << "' input contains a non-finite value ("
       << flat[i] << ") at (" << i / input.cols() << "," << i % input.cols()
       << ")";
    if (in_batch) os << " in batch item " << item;
    throw Error(Error::Code::kInvalidArgument, os.str());
  }
}

MatrixF CompiledNetwork::run(std::size_t layer_index,
                             const MatrixF& input) const {
  const BoundLayer& l = layer(layer_index);
  validate_input(layer_index, input);
  fault::inject("rt.run", l.name);
  return l.plan ? series_gemm(*l.plan, input, policy_)
                : dense_gemm(l.weight, input, policy_);
}

std::vector<MatrixF> CompiledNetwork::run_batch(
    std::size_t layer_index, std::span<const MatrixF> inputs) const {
  const BoundLayer& l = layer(layer_index);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    validate_input(layer_index, inputs[i], i);
  fault::inject("rt.run_batch", l.name);
  return l.plan ? series_gemm_batch(*l.plan, inputs, policy_)
                : dense_gemm_batch(l.weight, inputs, policy_);
}

bool CompiledNetwork::is_chain() const {
  for (std::size_t i = 1; i < layers_.size(); ++i)
    if (layers_[i].k != layers_[i - 1].m) return false;
  return true;
}

MatrixF CompiledNetwork::run_network(const MatrixF& input) const {
  TASD_CHECK_MSG(!layers_.empty(), "run_network on an empty artifact");
  TASD_CHECK_MSG(is_chain(),
                 "run_network requires a layer chain (every layer's k == "
                 "previous layer's m)");
  MatrixF act = run(0, input);
  for (std::size_t l = 1; l < layers_.size(); ++l) act = run(l, act);
  return act;
}

std::vector<MatrixF> CompiledNetwork::run_network_batch(
    std::span<const MatrixF> inputs) const {
  TASD_CHECK_MSG(!layers_.empty(), "run_network_batch on an empty artifact");
  TASD_CHECK_MSG(is_chain(),
                 "run_network_batch requires a layer chain (every layer's "
                 "k == previous layer's m)");
  std::vector<MatrixF> acts = run_batch(0, inputs);
  for (std::size_t l = 1; l < layers_.size(); ++l) acts = run_batch(l, acts);
  return acts;
}

std::vector<LayerTiming> CompiledNetwork::measure() const {
  Rng rng(kMeasureSeed);
  const ExecPolicy p = policy();
  std::vector<LayerTiming> out;
  out.reserve(layers_.size());
  volatile float sink = 0.0F;  // defeat dead-code elimination
  for (const auto& l : layers_) {
    LayerTiming t;
    t.name = l.name;
    t.m = l.m;
    t.k = l.k;
    // Rounded division with a uniform floor of min(layer.n, n_divisor-1):
    // layers with fewer than n_divisor positions keep their full N, the
    // measured N is monotone in layer.n (no cliff at layer.n ==
    // n_divisor), and above the floor region it is exactly proportional
    // to the true N, so cross-layer savings rankings are preserved.
    t.n = measured_n(l.n, opt_.n_divisor);
    t.config = l.config;

    const MatrixF b = random_dense(t.k, t.n, Dist::kNormalStd1, rng);
    // A configured layer holds no weight; its dense reference runs on the
    // same-shape approximation (see measure() in the header).
    const MatrixF approximation =
        l.plan ? l.plan->approximation() : MatrixF();
    const MatrixF& dense = l.plan ? approximation : l.weight;
    // Engage the SIMD power license with untimed passes of BOTH paths
    // before timing either: the first FMA-heavy calls in a process run
    // during the frequency transition, and min-of-repeats would
    // otherwise credit the dense side (measured first) with the
    // pre-transition clocks while the compressed side pays the
    // sustained vector rate — skewing exactly the dense/tasd ratio
    // this report exists to compare. The transition needs sustained
    // vector work, not one call, so warm until a small wall-time
    // budget is spent (at least one pass of each path).
    for (Timer warm; warm.millis() < 2.0;) {
      const MatrixF c = dense_gemm(dense, b, p);
      sink = sink + c(0, 0);
      if (l.plan) {
        const MatrixF c2 = series_gemm(*l.plan, b, p);
        sink = sink + c2(0, 0);
      }
    }
    t.dense_ms = time_ms_min(opt_.measure.repeats, [&] {
      const MatrixF c = dense_gemm(dense, b, p);
      sink = sink + c(0, 0);
    });
    if (l.plan) {
      t.tasd_ms = time_ms_min(opt_.measure.repeats, [&] {
        const MatrixF c = series_gemm(*l.plan, b, p);
        sink = sink + c(0, 0);
      });
    }
    out.push_back(std::move(t));
  }
  return out;
}

CompiledNetwork compile(std::string name,
                        std::vector<dnn::LayerBinding> layers,
                        const CompileOptions& opt) {
  TASD_CHECK_MSG(opt.n_divisor >= 1, "n_divisor must be >= 1");
  TASD_CHECK_MSG(opt.query_cols >= 1, "query_cols must be >= 1");
  TASD_CHECK_MSG(opt.measure.repeats >= 1, "measure.repeats must be >= 1");
  // Kernel binding happens now, not at first execution: "auto" resolves
  // to the table's best kernel (AVX2 when available, scalar otherwise),
  // and any other name is looked up so a misspelled or unavailable name
  // fails at compile time with a descriptive error. The artifact stores
  // the *resolved* kernels in its policy and their names in its options.
  // (A serialized artifact stores no kernel names: a load re-enters this
  // resolution on its own host.)
  const DenseEntry& dense = opt.dense_kernel == "auto"
                                ? best_dense()
                                : lookup_dense(opt.dense_kernel);
  const NmEntry& nm =
      opt.nm_kernel == "auto" ? best_nm() : lookup_nm(opt.nm_kernel);
  CompiledNetwork cn;
  cn.name_ = std::move(name);
  cn.opt_ = opt;
  cn.opt_.dense_kernel = dense.name;
  cn.opt_.nm_kernel = nm.name;
  if (opt.measure.num_threads != 0)
    cn.pool_ = std::make_unique<ThreadPool>(opt.measure.num_threads);
  cn.policy_ = {cn.pool_.get(), dense.fn, nm.fn};
  // Every configured weight without a prebuilt plan is hashed once, and
  // the hash is its plan's key. Hashing is most of a compile whose plans
  // are cached, so it runs one task per layer; task i writes slot i only.
  std::vector<ContentFingerprint> fingerprints(layers.size());
  for_each_index(default_pool(), layers.size(), [&](std::size_t i) {
    if (layers[i].config && !layers[i].plan)
      fingerprints[i] = content_fingerprint(layers[i].weight);
  });
  cn.layers_.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto& binding = layers[i];
    CompiledNetwork::BoundLayer l;
    l.name = std::move(binding.name);
    l.n = binding.positions;
    l.config = std::move(binding.config);
    if (binding.plan) {
      // Prebuilt (deserialized) plan: bind it directly — the zero-
      // decomposition load path. It must decompose the layer's config.
      TASD_CHECK_MSG(l.config && binding.plan->config == *l.config,
                     "prebuilt plan config does not match layer '" << l.name
                                                                   << "'");
      l.plan = std::move(binding.plan);
      l.fingerprint = binding.fingerprint;
    } else if (l.config) {
      // The one decomposition of this layer's lifetime, through the
      // shared cache so sibling artifacts and future compiles reuse it.
      l.fingerprint = fingerprints[i];
      l.plan = plan_cache().get_or_build(l.fingerprint, binding.weight,
                                         *l.config);
    }
    // The plan is all a configured layer executes: its weight is not
    // kept, and goes with `layers`.
    if (l.plan) {
      l.m = l.plan->rows;
      l.k = l.plan->cols;
    } else {
      l.m = binding.weight.rows();
      l.k = binding.weight.cols();
      l.weight = std::move(binding.weight);
    }
    l.kernel = l.plan ? nm.name : dense.name;
    l.batch_kernel = l.kernel;
    cn.layers_.push_back(std::move(l));
  }
  return cn;
}

CompiledNetwork compile(const dnn::NetworkWorkload& net,
                        const std::vector<std::optional<TasdConfig>>& configs,
                        const CompileOptions& opt) {
  TASD_CHECK_MSG(configs.size() == net.layers.size(),
                 "config list must align with workload layers");
  return compile(net.name, dnn::bind_layers(net, configs), opt);
}

}  // namespace tasd::rt
