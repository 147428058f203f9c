#include "dnn/layer_binding.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace tasd::dnn {

std::vector<LayerBinding> bind_layers(
    const NetworkWorkload& net,
    const std::vector<std::optional<TasdConfig>>& configs) {
  TASD_CHECK_MSG(configs.size() == net.layers.size(),
                 "config list must align with workload layers");
  // One task per layer on the default pool; task i writes only out[i],
  // so the bindings are the same at every thread count.
  std::vector<LayerBinding> out(net.layers.size());
  rt::for_each_index(rt::default_pool(), out.size(), [&](std::size_t i) {
    out[i].name = net.layers[i].name;
    out[i].weight = materialize_weight(net.layers[i]);
    out[i].positions = net.layers[i].n;
    out[i].config = configs[i];
  });
  return out;
}

std::vector<LayerBinding> bind_layers(Model& model, Index positions) {
  std::vector<LayerBinding> out;
  for (GemmLayer* layer : model.gemm_layers()) {
    LayerBinding b;
    b.name = layer->name();
    b.weight = layer->weight();
    b.positions = positions;
    b.config = layer->tasd_w();
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace tasd::dnn
