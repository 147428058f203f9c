#include "runtime/autotune.hpp"

#include <algorithm>
#include <utility>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {

namespace {

// Measurement-override hook (test seam). Plain static: set/cleared from
// one thread before compiling, per the header contract.
TuneTimer& timer_hook() {
  static TuneTimer hook;
  return hook;
}

/// Pick the fastest candidate; ties break toward the first name in table
/// order (the tables are built from the registry's sorted name lists, so
/// the choice is deterministic under identical timings — what the fake-
/// timer CI test pins).
const TuneCandidate& winner(const std::vector<TuneCandidate>& table) {
  TASD_CHECK_MSG(!table.empty(), "autotune candidate table is empty");
  const auto it = std::min_element(
      table.begin(), table.end(),
      [](const TuneCandidate& a, const TuneCandidate& b) { return a.ms < b.ms; });
  return *it;
}

}  // namespace

void set_autotune_timer(TuneTimer hook) { timer_hook() = std::move(hook); }

const LayerTuning* TuningResult::find(const std::string& layer) const {
  for (const auto& l : layers)
    if (l.layer == layer) return &l;
  return nullptr;
}

namespace detail {

TuningResult run_autotune(CompiledNetwork& net) {
  const auto& dispatch = GemmDispatch::instance();
  const CompileOptions& opt = net.options();
  const ExecPolicy base = net.policy();  // pool binding + fallback names
  const TuneTimer& hook = timer_hook();

  TuningResult result;
  result.host_signature = cpu_signature();
  result.layers.reserve(net.layers_.size());

  Rng rng(opt.measure.data_seed);
  volatile float sink = 0.0F;  // defeat dead-code elimination
  for (auto& l : net.layers_) {
    LayerTuning lt;
    lt.layer = l.name;
    lt.nm = l.series.has_value();

    // The two tuning workloads mirror what the artifact will execute:
    // run() at measure()'s shrunk width (the n_divisor story — both
    // engines scale linearly in N, so the shrink preserves the ranking),
    // run_batch() at autotune_batch_hint serving queries of query_cols
    // width each. Both draw their candidates from the layer's one slot.
    const Index n_single = measured_n(l.n, opt.n_divisor);
    const MatrixF b = random_dense(l.k, n_single, Dist::kNormalStd1, rng);
    std::vector<MatrixF> bs;
    bs.reserve(opt.autotune_batch_hint);
    for (std::size_t q = 0; q < opt.autotune_batch_hint; ++q)
      bs.push_back(random_dense(l.k, opt.query_cols, Dist::kNormalStd1, rng));

    const auto time_single = [&](const std::string& name) {
      if (hook)
        return hook({l.name, name, lt.nm, false, l.m, l.k, n_single, 0});
      ExecPolicy p = base;
      (lt.nm ? p.nm_kernel : p.dense_kernel) = name;
      return time_ms_min(opt.measure.repeats, [&] {
        const MatrixF c = lt.nm ? l.series->multiply(b, p)
                                : dense_gemm(l.weight, b, p);
        sink = sink + c(0, 0);
      });
    };
    const auto time_batch = [&](const std::string& name) {
      if (hook)
        return hook({l.name, name, lt.nm, true, l.m, l.k, opt.query_cols,
                     bs.size()});
      ExecPolicy p = base;
      (lt.nm ? p.nm_kernel : p.dense_kernel) = name;
      return time_ms_min(opt.measure.repeats, [&] {
        const auto cs = lt.nm ? l.series->multiply_batch(bs, p)
                              : dense_gemm_batch(l.weight, bs, p);
        sink = sink + cs[0](0, 0);
      });
    };

    for (const auto& name :
         lt.nm ? dispatch.nm_kernels() : dispatch.dense_kernels()) {
      lt.single.push_back({name, time_single(name)});
      lt.batch.push_back({name, time_batch(name)});
    }

    lt.chosen_single = winner(lt.single).kernel;
    lt.chosen_batch = winner(lt.batch).kernel;
    l.kernel = lt.chosen_single;
    l.batch_kernel = lt.chosen_batch;
    result.layers.push_back(std::move(lt));
  }
  return result;
}

bool apply_tuning(CompiledNetwork& net, const TuningResult& tuning) {
  if (tuning.host_signature != cpu_signature()) return false;
  const auto& dispatch = GemmDispatch::instance();
  const auto dense_names = dispatch.dense_kernels();
  const auto nm_names = dispatch.nm_kernels();

  // All-or-nothing: validate every layer before touching any binding, so
  // a result that only half-transfers never leaves a mixed state.
  std::vector<const LayerTuning*> found;
  found.reserve(net.layers_.size());
  for (const auto& l : net.layers_) {
    const LayerTuning* lt = tuning.find(l.name);
    if (lt == nullptr || lt->nm != l.series.has_value()) return false;
    const auto& names = lt->nm ? nm_names : dense_names;
    if (std::find(names.begin(), names.end(), lt->chosen_single) ==
            names.end() ||
        std::find(names.begin(), names.end(), lt->chosen_batch) == names.end())
      return false;
    found.push_back(lt);
  }
  for (std::size_t i = 0; i < net.layers_.size(); ++i) {
    net.layers_[i].kernel = found[i]->chosen_single;
    net.layers_[i].batch_kernel = found[i]->chosen_batch;
  }
  net.tuning_ = tuning;
  return true;
}

}  // namespace detail

}  // namespace tasd::rt
