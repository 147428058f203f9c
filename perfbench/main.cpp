// End-to-end benchmark of the TASDER -> compile/load -> serve path.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Runs one workload in this process, checks its outputs before timing,
// and prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (a
// metric of a layer the workload does not exercise reads 0). The line
// before it is a run-identity record. perfbench/run.py builds this
// program and runs it; perfbench/README.md defines every metric.
#include <sys/prctl.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common/cpu_features.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
      {"latency_ms_p50", "ms"},  {"latency_ms_tail", "ms"},
      {"qps", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"dnn.materialize_ms", "ms"},
        {"tasder.search_ms", "ms"},
        {"core.decompositions", "count"},
        {"core.plan_cache_hits", "count"},
        {"core.plan_cache_evictions", "count"},
        {"runtime.compile_ms", "ms"},
        {"artifact.save_ms", "ms"},
        {"artifact.load_ms", "ms"},
        {"artifact.file_bytes", "bytes"},
        {"artifact.load_mb_s", "MB/s"},
    };
    for (const char* kind : {"run_ms", "dense_ref_ms", "run_batch_ms"})
      for (const auto& stage : kStages)
        d.push_back({std::string("runtime.") + kind + "." + stage, "ms"});
    const std::vector<MetricDef> rest = {
        {"runtime.dense_batch_ref_ms", "ms"},
        {"runtime.run_ms.nm", "ms"},
        {"runtime.run_ms.dense", "ms"},
        {"serving.queue_ms_p50", "ms"},
        {"serving.queue_ms_tail", "ms"},
        {"serving.exec_ms_p50", "ms"},
        {"serving.mean_batch", "count"},
        {"serving.occupancy", "fraction"},
        {"serving.shed", "count"},
        {"serving.expired", "count"},
        {"serving.failed", "count"},
        {"serving.peak_queue_depth", "count"},
        {"gen.lag_ms_tail", "ms"},
        {"trace.overhead_frac", "fraction"},
        {"trace.residual_frac", "fraction"},
        {"fail_frac", "fraction"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

/// Offered rates of the serving workloads, in requests per second. They
/// are absolute and fixed, never derived from a capacity probed at run
/// time, so two builds are always offered the same load.
constexpr double kDecodeLowRate = 600.0;
constexpr double kDecodeHighRate = 1500.0;

int usage() {
  std::cerr << "usage: perfbench --workload <r34-tasder-gemv|r34-artifact-b16|"
               "decode-serve-low|decode-serve-high> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") args.workload = val;
      else if (key == "--seed") args.seed = std::stoull(val);
      else if (key == "--seconds") args.seconds = std::stod(val);
      else if (key == "--trace") args.trace = std::stoi(val) != 0;
      else if (key == "--out-dir") args.out_dir = val;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return usage();

  // The engine's admission window and the generator are timed waits of
  // a few hundred microseconds. With the default 50 us timer slack the
  // kernel ends them anywhere inside that slack, depending on unrelated
  // timers. At 1 ns each wait ends when it was asked to, which roughly
  // halved the run-to-run spread of the decode-serve-low median on a
  // shared 4-vCPU VM.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Outcome out;
  try {
    if (args.workload == "r34-tasder-gemv") {
      out = run_r34_tasder_gemv(args);
    } else if (args.workload == "r34-artifact-b16") {
      out = run_r34_artifact_b16(args);
    } else if (args.workload == "decode-serve-low") {
      out = run_decode_serve(args, kDecodeLowRate);
    } else if (args.workload == "decode-serve-high") {
      out = run_decode_serve(args, kDecodeHighRate);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::set<std::string> known;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const auto& d : *defs) known.insert(d.name);
  for (const auto& [name, value] : out.values)
    if (!known.count(name)) {
      std::cerr << "perfbench: undeclared metric " << name << "\n";
      return 3;
    }

  Result& r = out.result;
  if (r.correct) {
    const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
    for (const auto& d : defs) {
      const auto it = out.values.find(d.name);
      if (it == out.values.end() && !args.trace) {
        std::cerr << "perfbench: end-to-end metric " << d.name
                  << " was not measured\n";
        return 3;
      }
      r.metric(d.name, it == out.values.end() ? 0.0 : it->second, d.unit);
    }
  }

  std::string info = "{\"info\": {\"workload\": " + json_str(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + std::to_string(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_threads\": " + std::to_string(kPoolThreads) +
                     ", \"cpu_signature\": " + json_str(tasd::cpu_signature());
  for (const auto& [key, json] : out.info)
    info += ", " + json_str(key) + ": " + json;
  std::cout << info << "}}\n";
  for (const auto& e : r.errors) std::cerr << "perfbench: FAILED: " << e << "\n";
  std::cout << result_json(r) << std::endl;
  return r.correct ? 0 : 1;
}
