// Figure 16: real-system experiment — speed-up vs number of layers using
// TASD-W on an unstructured-sparse ResNet-34.
//
// The paper runs TensorRT engines on an RTX 3080's 2:4 sparse tensor
// cores; this repository substitutes the CPU runtime engine whose 2:4
// compressed kernel executes half the MACs of the dense kernel (see
// DESIGN.md). The quality axis is measured on the scaled-down twin model
// with the same fraction of layers converted.
//
// Paper reference: up to ~28-39 % speed-up with 0.9-1.5 % accuracy drop;
// speed-up grows with the number of converted layers.
#include <algorithm>
#include <iostream>

#include "common/table.hpp"
#include "dnn/builders.hpp"
#include "dnn/pruning.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "tasder/tasdw.hpp"

using namespace tasd;

int main() {
  print_banner("Figure 16: TASD-W on the CPU real-system proxy "
               "(sparse ResNet-34, 2:4 kernels)");

  // --- wall-clock side: full-scale shapes, 2:4 (STC-style) kernels ---
  // Compile once (binds kernels, prewarms every layer's plan), then
  // measure the artifact — the deployment flow the paper's experiment
  // models.
  const auto net = dnn::resnet34_workload(true, 42);
  std::vector<std::optional<TasdConfig>> configs(net.layers.size(),
                                                 TasdConfig::parse("2:4"));
  rt::CompileOptions opt;
  opt.n_divisor = 8;  // shrink N to keep measurements fast; ratios hold
  opt.measure.repeats = 3;
  // Pin the scalar kernel pair: both engines share one inner loop, so
  // the measured ratio isolates the paper's variable (every-MAC dense vs
  // stored-values-only compressed). The AVX2 pair is a valid deployment
  // but its dense kernel streams B better than the compressed kernel's
  // scattered accesses, diluting the ratio with a microarchitectural
  // effect Fig. 16's hardware does not have (see docs/reproducing.md;
  // perfbench's --trace 1 stage times report both kernel sets).
  opt.dense_kernel = "tiled-parallel";
  opt.nm_kernel = "row-parallel";
  const auto engine = rt::compile(net, configs, opt);
  const auto timings = engine.measure();
  const auto order = rt::conversion_order(timings);
  const double dense_total = rt::network_latency_ms(timings, order, 0);

  // --- quality side: twin model, same conversion count ---
  dnn::ConvNetOptions o;
  o.input_hw = 16;
  o.width_mult = 0.25;
  o.num_classes = 100;
  dnn::Model twin = dnn::make_resnet(34, o);
  (void)dnn::prune_unstructured(twin, 0.95);
  const auto eval = dnn::EvalSet::images(128, 16, 3, 1601);
  const auto ref = dnn::confident_labels(twin, eval, 0.5);
  auto twin_layers = twin.gemm_layers();

  // Twin conversion order: mirror the timing order by benefit rank where
  // possible (twin has its own layer list; rank by weight size).
  std::vector<std::size_t> twin_order(twin_layers.size());
  for (std::size_t i = 0; i < twin_order.size(); ++i) twin_order[i] = i;
  std::sort(twin_order.begin(), twin_order.end(),
            [&](std::size_t a, std::size_t b) {
              return twin_layers[a]->weight().size() >
                     twin_layers[b]->weight().size();
            });

  TextTable t;
  t.header({"#layers w/ TASD", "latency (ms)", "speed-up", "agreement"});
  const std::size_t total_layers = timings.size();
  for (std::size_t k = 0; k <= total_layers; k += 4) {
    const double lat = rt::network_latency_ms(timings, order, k);
    // Twin agreement with the proportional number of layers converted.
    twin.clear_tasd();
    const std::size_t twin_k = std::min(
        twin_layers.size(), k * twin_layers.size() / total_layers);
    for (std::size_t i = 0; i < twin_k; ++i)
      twin_layers[twin_order[i]]->set_tasd_w(TasdConfig::parse("2:4"));
    const double agree = dnn::top1_agreement(twin, eval, ref);
    t.row({std::to_string(k), TextTable::num(lat, 2),
           TextTable::num(dense_total / lat, 3) + "x",
           TextTable::pct(agree)});
  }
  t.print();

  std::cout << "\nPaper shape check: speed-up rises monotonically toward "
               "~1.3-1.4x with most layers\nconverted, while agreement "
               "stays near (or above) the 99% threshold for the\n"
               "TASDER-chosen prefix.\n";
  return 0;
}
