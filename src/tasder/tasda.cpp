#include "tasder/tasda.hpp"

#include "common/logging.hpp"
#include "tasder/util.hpp"

namespace tasd::tasder {

std::optional<TasdConfig> select_tasda_config(
    const std::vector<TasdConfig>& candidates, double sparsity, double alpha) {
  for (const auto& cfg : candidates) {
    if (cfg.approximated_sparsity() < sparsity + alpha) return cfg;
  }
  return std::nullopt;
}

namespace {

TasdaResult finalize(dnn::Model& model, const dnn::EvalSet& eval,
                     const std::vector<Index>& reference,
                     std::vector<TasdaLayerDecision> decisions,
                     std::string strategy) {
  TasdaResult r;
  r.decisions = std::move(decisions);
  r.strategy = std::move(strategy);
  r.achieved_agreement = dnn::top1_agreement(model, eval, reference);
  r.mac_fraction = model_slot_mac_fraction(model);
  return r;
}

}  // namespace

TasdaResult tasda_layer_wise(dnn::Model& model, const HwProfile& hw,
                             const dnn::EvalSet& calib,
                             const dnn::EvalSet& eval,
                             const std::vector<Index>& reference,
                             const TasdaOptions& opt) {
  // Profile the unmodified model on the calibration set.
  for (auto* l : model.gemm_layers()) l->set_tasd_a(std::nullopt);
  const auto stats = dnn::collect_calibration(model, calib);
  const auto candidates = hw.candidate_configs();

  std::vector<TasdaLayerDecision> decisions;
  for (const auto& st : stats) {
    if (!st.layer->allow_tasd_a()) {  // recorded, not converted
      decisions.emplace_back().layer_name = st.name;
      continue;
    }
    // GELU/Swish induce no literal zeros: use magnitude-based
    // pseudo-density instead (paper §4.3).
    const bool pseudo = !st.act_induces_sparsity;
    const double measured =
        opt.use_p99_density ? st.p99_density : st.mean_density;
    const double sparsity = 1.0 - (pseudo ? st.mean_pseudo_density : measured);
    auto config = select_tasda_config(candidates, sparsity, opt.alpha);
    if (config) st.layer->set_tasd_a(*config);
    decisions.push_back({st.name, std::move(config), sparsity, pseudo});
  }
  return finalize(model, eval, reference, std::move(decisions),
                  "layer-wise alpha=" + std::to_string(opt.alpha));
}

TasdaResult tasda_layer_wise_auto(dnn::Model& model, const HwProfile& hw,
                                  const dnn::EvalSet& calib,
                                  const dnn::EvalSet& eval,
                                  const std::vector<Index>& reference,
                                  const TasdaOptions& opt) {
  // From aggressive to conservative; first to pass the quality rule wins.
  // Strongly negative alphas restrict decomposition to the layers with
  // the very sparsest activations — a graceful fallback for models whose
  // quality is sensitive to dynamic decomposition.
  const double alphas[] = {opt.alpha, opt.alpha / 2.0, 0.0,   -0.05, -0.10,
                           -0.20,     -0.30,           -0.40, -0.50};
  for (double alpha : alphas) {
    TasdaOptions o = opt;
    o.alpha = alpha;
    TasdaResult r = tasda_layer_wise(model, hw, calib, eval, reference, o);
    if (r.achieved_agreement >= opt.quality_threshold) return r;
    TASD_INFO("tasda auto: alpha " << alpha << " failed quality ("
                                   << r.achieved_agreement << ")");
  }
  // Give up: no TASD-A at all.
  for (auto* l : model.gemm_layers()) l->set_tasd_a(std::nullopt);
  return finalize(model, eval, reference, {}, "layer-wise (none valid)");
}

TasdaResult tasda_apply_uniform(dnn::Model& model, const TasdConfig& cfg,
                                const dnn::EvalSet& eval,
                                const std::vector<Index>& reference) {
  std::vector<TasdaLayerDecision> decisions;
  for (auto* l : model.gemm_layers()) {
    if (!l->allow_tasd_a()) continue;
    l->set_tasd_a(cfg);
    TasdaLayerDecision d;
    d.layer_name = l->name();
    d.config = cfg;
    decisions.push_back(std::move(d));
  }
  return finalize(model, eval, reference, std::move(decisions),
                  "network-wise " + cfg.str());
}

}  // namespace tasd::tasder
