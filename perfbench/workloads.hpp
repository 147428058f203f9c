// The benchmark's workloads and the library-facing helpers they share.
// Every call into the library goes through its public headers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "runtime/compiled_network.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the saved artifact and the trace file.
  std::string out_dir = ".";
};

/// One workload run's outcome. `values` maps metric names (the names in
/// main.cpp's tables) to their measured values; main.cpp prints the set
/// the run mode asks for. `info` holds run-identity entries whose values
/// are JSON fragments.
struct Outcome {
  Result result;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> info;
};

/// Kernel parallelism of every artifact the benchmark builds. One
/// thread keeps the generator + batcher + pool threads of the serving
/// workloads within a 4-vCPU budget and keeps run-to-run spread low.
inline constexpr std::size_t kPoolThreads = 1;

Outcome run_r34_tasder_gemv(const Args& args);
Outcome run_r34_artifact_b16(const Args& args);
/// The decode step served at a fixed offered rate (requests/s).
Outcome run_decode_serve(const Args& args, double rate_per_s);

// ---- shared helpers (common.cpp) ----

/// Compile options with the benchmark's pool pinned.
tasd::rt::CompileOptions compile_options();

/// Random right-hand side (rows x 1) from `rng_seed`.
tasd::MatrixF random_input(tasd::Index rows, std::uint64_t rng_seed);

/// Check y against the reference gemm_ref(a, x): every element within
/// 1e-4 of sum_k |a(r,k)| |x(k)| (plus 1e-6 absolute). Appends a
/// description to `why` on failure.
bool matches_oracle(const tasd::MatrixF& y, const tasd::MatrixF& a,
                    const tasd::MatrixF& x, std::string& why);

/// Check run(i) of every layer of `net` against the oracle: the plan's
/// approximation for configured layers, the weight for dense ones.
void check_layers_against_oracle(const tasd::rt::CompiledNetwork& net,
                                 const std::vector<tasd::MatrixF>& inputs,
                                 Result& r);

/// Bitwise equality of two matrices.
bool same_bits(const tasd::MatrixF& a, const tasd::MatrixF& b);

/// ResNet stage of a layer name: stem, s0..s3 or fc.
std::string stage_of(const std::string& layer_name);
inline const std::vector<std::string> kStages = {"stem", "s0", "s1",
                                                 "s2",   "s3", "fc"};

/// Run-identity entries: host, kernel names actually bound, per-layer
/// configs of `net`.
void describe_network(const tasd::rt::CompiledNetwork& net,
                      std::vector<std::pair<std::string, std::string>>& info);

/// Time materialize_weight over every layer of `net`, in ms.
double materialize_all_ms(const tasd::dnn::NetworkWorkload& net);

}  // namespace perfbench
