#include "dnn/workloads.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dnn/pruning.hpp"
#include "sparse/view.hpp"
#include "tensor/generator.hpp"

namespace tasd::dnn {

Index NetworkWorkload::total_macs() const {
  Index total = 0;
  for (const auto& l : layers) total += l.macs() * l.repeat;
  return total;
}

Index NetworkWorkload::total_params() const {
  Index total = 0;
  for (const auto& l : layers) total += l.m * l.k * l.repeat;
  return total;
}

namespace {

/// Deterministic per-layer jitter in [0,1) (classic sin-hash).
double layer_noise(Index i) {
  const double v = std::sin(static_cast<double>(i + 1) * 12.9898) * 43758.5453;
  return v - std::floor(v);
}

/// Activation density for a ReLU-based network layer. Matches the Fig. 6
/// measurement: mid-band densities, a dense first layer (image input).
double relu_act_density(Index layer_idx, bool sparse_model) {
  if (layer_idx == 0) return 1.0;  // network input is a dense image
  const double base = sparse_model ? 0.34 : 0.46;
  return base + 0.22 * layer_noise(layer_idx);
}

/// Pseudo-density of GELU activations (dense but magnitude-skewed).
double gelu_pseudo_density(Index layer_idx) {
  return 0.32 + 0.12 * layer_noise(layer_idx * 7 + 3);
}

struct Builder {
  NetworkWorkload net;
  Index idx = 0;
  std::uint64_t seed = 0;
  double global_weight_sparsity = 0.0;  // 0 = dense
  Index expected_layers = 1;            // for the depth-profile position
  bool relu_net = true;

  void add(std::string name, Index m, Index k, Index n, Index repeat = 1) {
    GemmWorkload l;
    l.name = std::move(name);
    l.m = m;
    l.k = k;
    l.n = n;
    l.repeat = repeat;
    const double pos =
        expected_layers > 1
            ? static_cast<double>(idx) / static_cast<double>(expected_layers - 1)
            : 0.0;
    const bool is_last = idx + 1 == expected_layers;
    l.weight_density =
        global_weight_sparsity > 0.0
            ? 1.0 - layer_sparsity_target(global_weight_sparsity, pos, is_last)
            : 1.0;
    if (relu_net) {
      l.act_relu = true;
      l.act_density = relu_act_density(idx, global_weight_sparsity > 0.0);
      // ReLU zeros dominate: pseudo-density is slightly below density.
      l.act_pseudo_density = l.act_density * 0.92;
    } else {
      l.act_relu = false;
      l.act_density = 1.0;
      l.act_pseudo_density = gelu_pseudo_density(idx);
    }
    l.weight_seed = seed * 1000003ULL + idx;
    ++idx;
    net.layers.push_back(std::move(l));
  }
};

/// Count of GEMM layers in ResNet-50: stem + 16 blocks*(3 or 4 convs) + fc.
constexpr Index kResNet50Layers = 1 + (3 + 4 + 6 + 3) * 3 + 4 + 1;  // 54
constexpr Index kResNet34Layers = 1 + (3 + 4 + 6 + 3) * 2 + 3 + 1;  // 37
constexpr Index kBertLayers = 6 + 1;  // 6 distinct per-encoder shapes + head

/// "s<stage>.b<block>", the prefix of a ResNet block's layer names. Built
/// by appending: GCC 12 misreads `"s" + std::to_string(...)` chains as
/// overlapping copies (-Wrestrict).
std::string block_prefix(Index stage, Index block) {
  std::string prefix = "s";
  prefix += std::to_string(stage);
  prefix += ".b";
  prefix += std::to_string(block);
  return prefix;
}

void add_bottleneck(Builder& b, const std::string& prefix, Index in_ch,
                    Index mid, Index spatial_in, Index stride) {
  const Index out_spatial = spatial_in / stride;
  b.add(prefix + ".conv1", mid, in_ch, spatial_in * spatial_in);
  b.add(prefix + ".conv2", mid, mid * 9, out_spatial * out_spatial);
  b.add(prefix + ".conv3", mid * 4, mid, out_spatial * out_spatial);
  if (in_ch != mid * 4 || stride != 1) {
    b.add(prefix + ".proj", mid * 4, in_ch, out_spatial * out_spatial);
    // Skip-path projection: not a Fig. 8 TASD-A target.
    b.net.layers.back().tasd_a_eligible = false;
  }
}

void add_basic(Builder& b, const std::string& prefix, Index in_ch, Index width,
               Index spatial_in, Index stride) {
  const Index out_spatial = spatial_in / stride;
  b.add(prefix + ".conv1", width, in_ch * 9, out_spatial * out_spatial);
  b.add(prefix + ".conv2", width, width * 9, out_spatial * out_spatial);
  if (in_ch != width || stride != 1) {
    b.add(prefix + ".proj", width, in_ch, out_spatial * out_spatial);
    b.net.layers.back().tasd_a_eligible = false;
  }
}

}  // namespace

NetworkWorkload resnet50_workload(bool sparse_weights, std::uint64_t seed) {
  Builder b;
  b.net.name = sparse_weights ? "sparse_resnet50" : "dense_resnet50";
  b.net.sparse_weights = sparse_weights;
  b.seed = seed;
  b.global_weight_sparsity = sparse_weights ? 0.95 : 0.0;
  b.expected_layers = kResNet50Layers;
  b.relu_net = true;

  b.add("stem", 64, 3 * 49, 112 * 112);
  const Index stage_blocks[4] = {3, 4, 6, 3};
  const Index stage_width[4] = {64, 128, 256, 512};
  const Index stage_spatial[4] = {56, 28, 14, 7};
  Index in_ch = 64;
  for (Index s = 0; s < 4; ++s) {
    for (Index blk = 0; blk < stage_blocks[s]; ++blk) {
      const Index stride = (s > 0 && blk == 0) ? 2 : 1;
      const Index spatial_in = stride == 2 ? stage_spatial[s] * 2
                                           : stage_spatial[s];
      add_bottleneck(b, block_prefix(s, blk), in_ch, stage_width[s],
                     spatial_in, stride);
      in_ch = stage_width[s] * 4;
    }
  }
  b.add("fc", 1000, 2048, 1);
  b.net.layers.back().tasd_a_eligible = false;  // classifier head
  return std::move(b.net);
}

NetworkWorkload resnet34_workload(bool sparse_weights, std::uint64_t seed) {
  Builder b;
  b.net.name = sparse_weights ? "sparse_resnet34" : "dense_resnet34";
  b.net.sparse_weights = sparse_weights;
  b.seed = seed + 7;
  b.global_weight_sparsity = sparse_weights ? 0.95 : 0.0;
  b.expected_layers = kResNet34Layers;
  b.relu_net = true;

  b.add("stem", 64, 3 * 49, 112 * 112);
  const Index stage_blocks[4] = {3, 4, 6, 3};
  const Index stage_width[4] = {64, 128, 256, 512};
  const Index stage_spatial[4] = {56, 28, 14, 7};
  Index in_ch = 64;
  for (Index s = 0; s < 4; ++s) {
    for (Index blk = 0; blk < stage_blocks[s]; ++blk) {
      const Index stride = (s > 0 && blk == 0) ? 2 : 1;
      const Index spatial_in =
          stride == 2 ? stage_spatial[s] * 2 : stage_spatial[s];
      add_basic(b, block_prefix(s, blk), in_ch, stage_width[s], spatial_in,
                stride);
      in_ch = stage_width[s];
    }
  }
  b.add("fc", 1000, 512, 1);
  b.net.layers.back().tasd_a_eligible = false;  // classifier head
  return std::move(b.net);
}

NetworkWorkload bert_workload(bool sparse_weights, std::uint64_t seed) {
  Builder b;
  b.net.name = sparse_weights ? "sparse_bert" : "dense_bert";
  b.net.sparse_weights = sparse_weights;
  b.seed = seed + 13;
  b.global_weight_sparsity = sparse_weights ? 0.90 : 0.0;
  b.expected_layers = kBertLayers;
  b.relu_net = false;  // GELU: dense activations

  const Index d = 768;
  const Index tokens = 128;
  // 12 identical encoders; shapes stored once with repeat=12.
  b.add("enc.q", d, d, tokens, 12);
  b.add("enc.k", d, d, tokens, 12);
  b.add("enc.v", d, d, tokens, 12);
  b.add("enc.attn_out", d, d, tokens, 12);
  b.add("enc.fc1", 4 * d, d, tokens, 12);
  b.add("enc.fc2", d, 4 * d, tokens, 12);
  b.add("head", 2, d, 1);
  // Input provenance (paper §4.3 / Fig. 8): Q/K/V and the attention
  // output projection are not TASD-A targets, and their inputs are
  // LayerNorm outputs — dense AND unskewed. Only fc2 consumes the
  // magnitude-skewed GELU output.
  for (auto& l : b.net.layers) {
    if (l.name == "enc.fc2") {
      l.act_pseudo_density = 0.40;
    } else if (l.name == "head") {
      l.act_pseudo_density = 0.75;
    } else {
      l.act_pseudo_density = 0.76;
      if (l.name != "enc.fc1") l.tasd_a_eligible = false;
    }
  }
  return std::move(b.net);
}

NetworkWorkload decode_step_workload(Index hidden, Index kv_len,
                                     bool sparse_weights, std::uint64_t seed) {
  TASD_CHECK_MSG(hidden >= 1 && kv_len >= 1,
                 "decode_step_workload needs hidden >= 1 and kv_len >= 1");
  Builder b;
  b.net.name = (sparse_weights ? "sparse_decode_h" : "dense_decode_h") +
               std::to_string(hidden) + "_kv" + std::to_string(kv_len);
  b.net.sparse_weights = sparse_weights;
  b.seed = seed + 29;
  b.global_weight_sparsity = sparse_weights ? 0.90 : 0.0;
  b.expected_layers = 6;
  b.relu_net = false;  // GELU MLP: dense activations

  const Index h = hidden;
  // The chain invariant (layer k == previous layer m) is what makes the
  // stack a run_network/run_network_batch input: q_proj (hxh) feeds
  // scores (kv x h, the K cache as weight), which feeds value mixing
  // (h x kv, V transposed), then out_proj and the MLP pair.
  b.add("dec.q_proj", h, h, 1);
  b.add("dec.scores", kv_len, h, 1);
  b.add("dec.attn_v", h, kv_len, 1);
  b.add("dec.out_proj", h, h, 1);
  b.add("dec.mlp_up", 4 * h, h, 1);
  b.add("dec.mlp_down", h, 4 * h, 1);
  for (auto& l : b.net.layers) {
    if (l.name == "dec.scores" || l.name == "dec.attn_v") {
      // KV-cache operands are activations, not weights: always dense,
      // never a TASD conversion target.
      l.weight_density = 1.0;
      l.tasd_a_eligible = false;
    } else if (l.name == "dec.q_proj" || l.name == "dec.out_proj") {
      // Attention projections consume LayerNorm outputs: excluded from
      // TASD-A per Fig. 8. (The MLP pair stays eligible.)
      l.tasd_a_eligible = false;
    }
  }
  return std::move(b.net);
}

std::vector<GemmWorkload> table4_layers() {
  // Table 4 dims, translated to our convention (M = output channels/
  // features, N = spatial positions/tokens, K = reduction).
  auto pick = [](const NetworkWorkload& net, Index m, Index k, Index n,
                 const std::string& label) {
    for (const auto& l : net.layers)
      if (l.m == m && l.k == k && l.n == n) {
        GemmWorkload copy = l;
        copy.name = label;
        return copy;
      }
    GemmWorkload fallback;
    fallback.name = label + " (synthetic)";
    fallback.m = m;
    fallback.k = k;
    fallback.n = n;
    return fallback;
  };

  const auto dense_rn50 = resnet50_workload(false, 42);
  const auto sparse_rn50 = resnet50_workload(true, 42);
  const auto dense_bert = bert_workload(false, 42);
  const auto sparse_bert = bert_workload(true, 42);

  std::vector<GemmWorkload> out;
  // Dense/sparse ResNet-50: L1 = s1 conv2 (M128-K1152-N784),
  // L2 = s0 conv2 (M64-K576-N3136), L3 = s2 conv2 (M256-K2304-N196).
  out.push_back(pick(dense_rn50, 128, 1152, 784, "dense_rn50/L1"));
  out.push_back(pick(dense_rn50, 64, 576, 3136, "dense_rn50/L2"));
  out.push_back(pick(dense_rn50, 256, 2304, 196, "dense_rn50/L3"));
  out.push_back(pick(sparse_rn50, 128, 1152, 784, "sparse_rn50/L1"));
  out.push_back(pick(sparse_rn50, 64, 576, 3136, "sparse_rn50/L2"));
  out.push_back(pick(sparse_rn50, 256, 2304, 196, "sparse_rn50/L3"));
  // BERT: L1 = QKV (768x768, N128), L2 = fc1 (3072x768), L3 = fc2.
  out.push_back(pick(dense_bert, 768, 768, 128, "dense_bert/L1"));
  out.push_back(pick(dense_bert, 3072, 768, 128, "dense_bert/L2"));
  out.push_back(pick(dense_bert, 768, 3072, 128, "dense_bert/L3"));
  out.push_back(pick(sparse_bert, 768, 768, 128, "sparse_bert/L1"));
  out.push_back(pick(sparse_bert, 3072, 768, 128, "sparse_bert/L2"));
  out.push_back(pick(sparse_bert, 768, 3072, 128, "sparse_bert/L3"));
  return out;
}

MatrixF materialize_weight(const GemmWorkload& layer) {
  Rng rng(layer.weight_seed);
  MatrixF w(layer.m, layer.k);
  const double stddev = std::sqrt(2.0 / static_cast<double>(layer.k));
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, stddev));
  if (layer.structured_m > 0) {
    // Structured-pruned model: keep the N largest per M-block (exactly
    // what HW-aware fine-tuning would leave behind).
    w = sparse::nm_view(
        w, sparse::NMPattern(layer.structured_n, layer.structured_m));
  } else if (layer.weight_density < 1.0) {
    w = magnitude_prune(std::move(w), 1.0 - layer.weight_density);
  }
  return w;
}

}  // namespace tasd::dnn
