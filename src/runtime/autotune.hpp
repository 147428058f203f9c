// Per-layer kernel autotuning (ROADMAP item 4): make rt::compile pick
// each layer's kernel by measurement instead of the static best_*()
// chain. PR 5's benches showed the fastest kernel is a function of
// (shape, batch, threads) — dense-avx2 out-serves 2:4 at GEMV widths
// while TASD wins at wider N — and SparseRT (PAPERS.md) shows the win of
// ahead-of-time per-matrix specialization; the GemmDispatch registry's
// bit-exactness contracts are what make the candidates interchangeable.
//
// When CompileOptions::kernel_policy == KernelPolicy::kAutotune,
// assemble_network micro-benches every registered candidate of each
// layer's slot (dense or N:M) on two workloads — one right-hand side at
// the measured width for run(), a batch at the batch hint for
// run_batch() — on the compiling host, min-of-N with an untimed warmup
// via time_ms_min; it binds the per-layer winners and records the full
// TuningResult (candidate tables, timings, chosen names, host CPU
// signature) on the CompiledNetwork. save_artifact serializes the
// result into a TASDART1 tuning section; load_artifact restores the
// binding when tasd::cpu_signature() matches and falls back to best_*()
// re-resolution when it doesn't (see docs/artifact.md).
//
// Correctness is unaffected by construction: candidates within a
// rounding family are bitwise interchangeable and across families agree
// to float tolerance (docs/kernels.md), so an autotuned network differs
// from a statically-bound one at most by family rounding.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace tasd::rt {

class CompiledNetwork;

/// One micro-benched candidate: a registered kernel name and its
/// min-of-N time on this layer's tuning workload.
struct TuneCandidate {
  std::string kernel;
  double ms = 0.0;
};

/// Tuning record of one layer: the full candidate tables (so benches and
/// artifacts can report *why* a kernel won, not just which) and the
/// chosen names for the single-RHS and batch workloads. Both tables list
/// the same candidates, the layer's slot, timed on different workloads.
struct LayerTuning {
  std::string layer;
  bool nm = false;  ///< candidates come from the N:M slot (layer has a
                    ///< bound series) rather than the dense slot
  std::vector<TuneCandidate> single;
  std::vector<TuneCandidate> batch;
  std::string chosen_single;
  std::string chosen_batch;
};

/// A whole network's tuning: per-layer records plus the host signature
/// they were measured under (tasd::cpu_signature()). Only trusted —
/// restored from an artifact — on a host reporting the same signature.
struct TuningResult {
  std::string host_signature;
  std::vector<LayerTuning> layers;

  /// The record for `layer`, or nullptr.
  [[nodiscard]] const LayerTuning* find(const std::string& layer) const;
};

/// What one timer invocation measured — handed to the override hook so a
/// fake timer can key its answer on everything the real one depends on.
struct TuneMeasurement {
  std::string layer;
  std::string kernel;
  bool nm = false;     ///< N:M slot (vs dense slot)
  bool batch = false;  ///< batch workload (vs single-RHS workload)
  Index m = 0, k = 0, n = 0;   ///< timed operand shape (n = RHS width)
  std::size_t batch_items = 0;  ///< batch item count (0 for single)
};

/// Measurement override: when set, autotune calls the hook instead of
/// wall-clock timing — the deterministic-CI seam (fixed fake timings
/// must yield a fixed binding; tests/runtime/test_autotune.cpp). Pass an
/// empty function to restore wall-clock measurement. Not thread-safe:
/// set it before compiling, from one thread (a test fixture, not
/// production code).
using TuneTimer = std::function<double(const TuneMeasurement&)>;
void set_autotune_timer(TuneTimer hook);

namespace detail {

/// Micro-bench every registered candidate for every layer of `net`,
/// rebind each layer to its winners, and return the full record. Called
/// by assemble_network under kAutotune; requires the layers to be bound.
TuningResult run_autotune(CompiledNetwork& net);

/// Rebind `net`'s layers from a deserialized tuning result. Returns
/// false — leaving the static binding untouched — when the result does
/// not transfer to this process: host signature mismatch, layer set
/// mismatch, or a chosen kernel that is not registered here.
bool apply_tuning(CompiledNetwork& net, const TuningResult& tuning);

}  // namespace detail

}  // namespace tasd::rt
