#include "tasder/workload_opt.hpp"

#include <map>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/approx_stats.hpp"
#include "core/permute.hpp"
#include "core/plan_cache.hpp"
#include "sparse/stats.hpp"
#include "tasder/tasda.hpp"

namespace tasd::tasder {

namespace {

/// The block size M every term of `config` shares, or 0 when the terms
/// mix block sizes (or there are none).
int common_block_size(const TasdConfig& config) {
  if (config.terms.empty()) return 0;
  const int m = config.terms.front().m;
  for (const auto& t : config.terms)
    if (t.m != m) return 0;
  return m;
}

/// TASD-W: the most aggressive series within the drop budget, measured
/// on the materialized weights (optionally permutation-balanced). Same-M
/// candidates are judged by counting from one block histogram per M;
/// only the chosen series is decomposed, through the plan cache, so a
/// later compile of the same weights binds it without decomposing.
void choose_weight_series(const std::vector<TasdConfig>& candidates,
                          const WorkloadOptOptions& opt,
                          accel::LayerExecution& exec) {
  const MatrixF w = dnn::materialize_weight(exec.layer);
  std::map<int, std::vector<Index>> histograms;
  for (const auto& cfg : candidates) {
    ApproxStats stats;
    if (const int m = common_block_size(cfg); m > 0) {
      auto it = histograms.find(m);
      if (it == histograms.end())
        it = histograms.emplace(m, sparse::block_nnz_histogram(w, m)).first;
      const auto& hist = it->second;
      for (std::size_t k = 0; k < hist.size(); ++k)
        stats.original_nnz += k * hist[k];
      stats.dropped_nnz = series_dropped_nnz(hist, cfg);
      stats.kept_nnz = stats.original_nnz - stats.dropped_nnz;
    } else {
      stats = approx_stats(w, cfg);
    }
    if (opt.use_channel_permutation &&
        stats.dropped_nnz_fraction() > opt.weight_drop_budget) {
      stats = find_tasd_permutation(w, cfg, 1).after;
    }
    if (stats.dropped_nnz_fraction() <= opt.weight_drop_budget) {
      exec.weight_cfg = cfg;
      exec.weight_kept_fraction = static_cast<double>(stats.kept_nnz) /
                                  static_cast<double>(w.size());
      (void)plan_cache().get_or_build(w, cfg);
      return;
    }
  }
}

}  // namespace

Index series_dropped_nnz(const std::vector<Index>& histogram,
                         const TasdConfig& config) {
  const int m = common_block_size(config);
  TASD_CHECK_MSG(m > 0 && histogram.size() == static_cast<std::size_t>(m) + 1,
                 "series " << config.str()
                           << " does not match a block histogram of "
                           << histogram.size() << " bins");
  Index kept_per_block = 0;
  for (const auto& t : config.terms) kept_per_block += static_cast<Index>(t.n);
  Index dropped = 0;
  for (Index k = kept_per_block + 1; k < histogram.size(); ++k)
    dropped += histogram[k] * (k - kept_per_block);
  return dropped;
}

std::vector<accel::LayerExecution> plain_executions(
    const dnn::NetworkWorkload& net) {
  std::vector<accel::LayerExecution> out;
  out.reserve(net.layers.size());
  for (const auto& layer : net.layers) out.push_back({layer, {}, {}, {}});
  return out;
}

std::vector<accel::LayerExecution> optimize_workload(
    const dnn::NetworkWorkload& net, const HwProfile& hw,
    const WorkloadOptOptions& opt) {
  std::vector<accel::LayerExecution> out = plain_executions(net);
  if (hw.patterns.empty()) return out;
  const auto candidates = hw.candidate_configs();

  // Layers are independent (each has its own weight seed) and task i
  // writes only out[i], so the result is the same at every thread count.
  rt::for_each_index(rt::default_pool(), out.size(), [&](std::size_t i) {
    accel::LayerExecution& exec = out[i];
    if (net.sparse_weights) {
      choose_weight_series(candidates, opt, exec);
    } else if (hw.has_tasd_units && exec.layer.tasd_a_eligible) {
      // TASD-A via the sparsity(+pseudo-density) + alpha rule.
      const double sparsity = exec.layer.act_relu
                                  ? 1.0 - exec.layer.act_density
                                  : 1.0 - exec.layer.act_pseudo_density;
      exec.act_cfg = select_tasda_config(candidates, sparsity, opt.alpha);
    }
  });

  for (const auto& exec : out) {
    if (net.sparse_weights) {
      TASD_DEBUG("workload " << net.name << " layer " << exec.layer.name
                             << ": TASD-W "
                             << (exec.weight_cfg ? exec.weight_cfg->str()
                                                 : "none"));
    } else if (hw.has_tasd_units && exec.layer.tasd_a_eligible) {
      TASD_DEBUG("workload " << net.name << " layer " << exec.layer.name
                             << ": TASD-A "
                             << (exec.act_cfg ? exec.act_cfg->str() : "none"));
    }
  }
  return out;
}

}  // namespace tasd::tasder
