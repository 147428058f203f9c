// Workload → layer bindings: the common executable form the runtime's
// compile step consumes.
//
// Every source of deployable layers — the full-scale NetworkWorkload
// shape tables (weights materialized from seeds), an in-memory
// dnn::Model that TASDER optimized (weights owned by the layers), and
// the artifact loader (plans read back from disk) — flattens into the
// same per-layer record: a name, the GEMM weight or an already-built
// plan, the activation positions to measure at, and the chosen TASD
// series. dnn cannot depend on the runtime, so the binding lives here
// and rt::compile() (src/runtime/compiled_network.hpp) consumes it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/plan_cache.hpp"
#include "dnn/model.hpp"
#include "dnn/workloads.hpp"
#include "tensor/matrix.hpp"

namespace tasd::dnn {

/// One deployable layer: C(m x positions) = weight(m x k) * X(k x positions).
struct LayerBinding {
  std::string name;
  /// Materialized GEMM operand (M x K). Not read when `plan` is set.
  MatrixF weight;
  /// Full-scale activation positions (the GEMM's N) used when measuring
  /// the layer; execution accepts any right-hand-side width.
  Index positions = 0;
  std::optional<TasdConfig> config;  ///< nullopt = dense
  /// An already-built decomposition of `config` (the artifact loader
  /// sets it); null = decompose `weight` per CompileOptions.
  std::shared_ptr<const DecompositionPlan> plan;
  /// With `plan`: its PlanCache key, the content fingerprint of the
  /// weight it decomposes. Otherwise unused (compile takes it).
  ContentFingerprint fingerprint;
};

/// Bind a full-scale workload's layers under per-layer configs (entries
/// align with net.layers; nullopt = dense). Weights are materialized
/// from each layer's seed, deterministically, one layer per task on
/// rt::default_pool().
std::vector<LayerBinding> bind_layers(
    const NetworkWorkload& net,
    const std::vector<std::optional<TasdConfig>>& configs);

/// Bind a model's GEMM layers: each layer contributes its current weight
/// and its TASD-W config (TASD-A is a dynamic activation transformation
/// and has no static kernel to bind). `positions` sets the measurement
/// width for every layer (models don't pin activation widths statically).
std::vector<LayerBinding> bind_layers(Model& model, Index positions = 128);

}  // namespace tasd::dnn
