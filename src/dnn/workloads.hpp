// Full-scale network workloads for the accelerator model.
//
// The analytical accelerator model (src/accel/) needs each layer's GEMM
// shape plus operand densities — not activations or gradients. These
// builders enumerate the *original, full-scale* layer shapes of the
// paper's evaluation networks (ResNet-50/34 at 224x224, BERT-base at
// sequence length 128), with per-layer weight densities following the
// Fig. 6 profile and activation densities following measured ReLU/GELU
// behaviour. Weight values can be materialized on demand (seeded) when a
// consumer needs magnitude information (TASD-W dropped-non-zero stats).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace tasd::dnn {

/// One GEMM layer of a full-scale network: C(MxN) = W(MxK) * X(KxN).
struct GemmWorkload {
  std::string name;
  Index m = 0;
  Index k = 0;
  Index n = 0;
  double weight_density = 1.0;
  double act_density = 1.0;          ///< literal density of X
  double act_pseudo_density = 1.0;   ///< magnitude pseudo-density of X
  bool act_relu = true;   ///< X produced by a ReLU-family activation
  /// TASD-A permitted on this layer (attention Q/K/V/out projections are
  /// excluded, paper §4.3 / Fig. 8).
  bool tasd_a_eligible = true;
  /// Non-zero when the model was structured-pruned (HW-aware
  /// fine-tuning): weights conform to structured_n:structured_m.
  int structured_n = 0;
  int structured_m = 0;
  std::uint64_t weight_seed = 0;     ///< seed to materialize weight values
  Index repeat = 1;       ///< number of identical instances in the network

  /// Dense MAC count of one instance.
  [[nodiscard]] Index macs() const { return m * k * n; }
};

/// A whole network as a stack of GEMM workloads.
struct NetworkWorkload {
  std::string name;
  bool sparse_weights = false;
  std::vector<GemmWorkload> layers;

  /// Total dense MACs including repeats.
  [[nodiscard]] Index total_macs() const;
  /// Total weight parameters including repeats.
  [[nodiscard]] Index total_params() const;
};

/// ResNet-50, 224x224 input, batch 1. `sparse_weights` applies the 95 %
/// Fig. 6 pruning profile.
NetworkWorkload resnet50_workload(bool sparse_weights, std::uint64_t seed);

/// ResNet-34, 224x224 input, batch 1 (the real-system experiment model).
NetworkWorkload resnet34_workload(bool sparse_weights, std::uint64_t seed);

/// BERT-base: 12 encoders, hidden 768, sequence length 128.
NetworkWorkload bert_workload(bool sparse_weights, std::uint64_t seed);

/// One autoregressive transformer decode step at a given KV-cache
/// length: query projection, attention scores against the K cache,
/// value mixing, output projection, then the MLP pair. Every layer has
/// n = 1 (a single token's activations) and chains — each layer's K
/// equals the previous layer's M — so the stack runs end-to-end through
/// CompiledNetwork::run_network and run_network_batch. This is the
/// GEMV serving regime where per-layer dispatch overhead dominates
/// arithmetic. `sparse_weights` prunes the four projection/MLP weights
/// (90 %, BERT profile); the score/value layers are the KV cache itself
/// — dense activations, never pruned, and not TASD-A targets (attention
/// exclusion, paper §4.3 / Fig. 8).
NetworkWorkload decode_step_workload(Index hidden, Index kv_len,
                                     bool sparse_weights, std::uint64_t seed);

/// The paper's Table 4 representative layers (L1/L2/L3 per workload).
/// Names are "<workload>/L<i>".
std::vector<GemmWorkload> table4_layers();

/// Generate the actual weight matrix of a workload layer: He-initialized
/// Gaussian, magnitude-pruned to (1 - weight_density). Deterministic in
/// weight_seed.
MatrixF materialize_weight(const GemmWorkload& layer);

}  // namespace tasd::dnn
