#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "dnn/workloads.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tasd;

rt::CompileOptions compile_options() {
  rt::CompileOptions opt;
  opt.measure.num_threads = kPoolThreads;
  opt.query_cols = 1;
  return opt;
}

MatrixF random_input(Index rows, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  return random_dense(rows, 1, Dist::kNormal, rng);
}

bool matches_oracle(const MatrixF& y, const MatrixF& a, const MatrixF& x,
                    std::string& why) {
  const MatrixF ref = gemm_ref(a, x);
  if (y.rows() != ref.rows() || y.cols() != ref.cols()) {
    why += "shape mismatch; ";
    return false;
  }
  for (Index r = 0; r < ref.rows(); ++r) {
    for (Index c = 0; c < ref.cols(); ++c) {
      double scale = 0.0;
      for (Index k = 0; k < a.cols(); ++k)
        scale += std::fabs(static_cast<double>(a(r, k))) *
                 std::fabs(static_cast<double>(x(k, c)));
      const double err = std::fabs(static_cast<double>(y(r, c)) - ref(r, c));
      if (!(err <= 1e-4 * scale + 1e-6)) {
        std::ostringstream o;
        o << "element (" << r << "," << c << ") off by " << err
          << " (scale " << scale << "); ";
        why += o.str();
        return false;
      }
    }
  }
  return true;
}

void check_layers_against_oracle(const rt::CompiledNetwork& net,
                                 const std::vector<MatrixF>& inputs,
                                 Result& r) {
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& layer = net.layer(i);
    std::string why;
    const MatrixF y = net.run(i, inputs[i]);
    const bool ok =
        layer.plan ? matches_oracle(y, layer.plan->approximation(), inputs[i], why)
                   : matches_oracle(y, layer.weight, inputs[i], why);
    if (!ok) r.fail("run(" + std::to_string(i) + ") " + layer.name +
                    " disagrees with gemm_ref: " + why);
  }
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string stage_of(const std::string& layer_name) {
  const auto dot = layer_name.find('.');
  return dot == std::string::npos ? layer_name : layer_name.substr(0, dot);
}

void describe_network(const rt::CompiledNetwork& net,
                      std::vector<std::pair<std::string, std::string>>& info) {
  std::set<std::string> kernels, batch_kernels;
  std::string configs = "{";
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& l = net.layer(i);
    kernels.insert(l.kernel);
    batch_kernels.insert(l.batch_kernel);
    configs += (i ? "," : "") + json_str(l.name) + ":" +
               json_str(l.config ? l.config->str() : "dense");
  }
  const auto list = [](const std::set<std::string>& s) {
    std::string out = "[";
    for (const auto& k : s) out += (out.size() > 1 ? "," : "") + json_str(k);
    return out + "]";
  };
  info.emplace_back("kernels", list(kernels));
  info.emplace_back("batch_kernels", list(batch_kernels));
  info.emplace_back("configs", configs + "}");
  info.emplace_back("configured_layers",
                    std::to_string(net.configured_count()));
}

double materialize_all_ms(const dnn::NetworkWorkload& net) {
  const auto t0 = Clock::now();
  for (const auto& layer : net.layers) (void)dnn::materialize_weight(layer);
  return ms_between(t0, Clock::now());
}

}  // namespace perfbench
