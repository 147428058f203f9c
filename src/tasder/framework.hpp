// TASDER facade (paper Fig. 5): one entry point that takes a model (or a
// full-scale workload), sample/calibration data, and the target hardware
// description, and returns/applies the TASD transformation.
#pragma once

#include <string>

#include "runtime/compiled_network.hpp"
#include "tasder/tasda.hpp"
#include "tasder/tasdw.hpp"
#include "tasder/workload_opt.hpp"

namespace tasd::tasder {

/// Combined options for the facade.
struct TasderOptions {
  TasdwOptions tasdw;
  TasdaOptions tasda;
  WorkloadOptOptions workload;
  /// Weight-sparsity threshold above which the framework prefers TASD-W
  /// over TASD-A for a model.
  double weight_sparse_threshold = 0.30;
};

/// Which strategy the facade chose for a model.
enum class TasderMode { kNone, kWeights, kActivations };

/// Result of optimizing a model in place.
struct TasderModelResult {
  TasderMode mode = TasderMode::kNone;
  TasdwResult tasdw;      ///< valid when mode == kWeights
  TasdaResult tasda;      ///< valid when mode == kActivations
  double achieved_agreement = 1.0;
  double mac_fraction = 1.0;

  [[nodiscard]] std::string mode_name() const;
};

/// Optimize `model` for `hw`: layer-wise TASD-W when the model's weights
/// are unstructured sparse, otherwise layer-wise TASD-A (auto-α) when the
/// hardware has TASD units. Configs are applied to the model.
TasderModelResult optimize_model(dnn::Model& model, const HwProfile& hw,
                                 const dnn::EvalSet& calib,
                                 const dnn::EvalSet& eval,
                                 const std::vector<Index>& reference,
                                 const TasderOptions& opt = {});

/// A deployable compilation of an optimized model: the TASDER decision
/// plus the executable artifact over the model's GEMM layers. Move-only
/// (the artifact owns its plans and pool).
struct TasderCompiled {
  TasderModelResult decision;
  rt::CompiledNetwork network;
};

/// Compile-once entry point: run optimize_model(), then bind the model's
/// GEMM layers into an rt::CompiledNetwork — TASD-W series become bound
/// structured kernels over prewarmed plans; layers left dense (including
/// all layers under TASD-A, a dynamic activation transformation with no
/// static kernel to bind) bind the dense kernel. The artifact is ready
/// for run()/run_batch()/measure() with zero further decompositions.
/// `measure_positions` sets every layer's measurement width (models
/// don't pin activation widths statically).
TasderCompiled compile(dnn::Model& model, const HwProfile& hw,
                       const dnn::EvalSet& calib, const dnn::EvalSet& eval,
                       const std::vector<Index>& reference,
                       const TasderOptions& opt = {},
                       const rt::CompileOptions& compile_opt = {},
                       Index measure_positions = 128);

}  // namespace tasd::tasder
