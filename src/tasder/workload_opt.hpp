// TASDER at the full-scale-workload level: choose per-layer TASD series
// for the accelerator model's network workloads (DESIGN.md §experiment
// index; feeds Figs. 12, 13, 15, 19).
//
// The decision policy mirrors the model-level strategies, but quality is
// enforced through a per-layer dropped-non-zero budget (TASD-W) and the
// sparsity+α rule (TASD-A) instead of end-to-end accuracy — the budgets
// are validated against the twin-model accuracy experiments (Fig. 14).
#pragma once

#include <vector>

#include "accel/perf_model.hpp"
#include "dnn/workloads.hpp"
#include "tasder/hw_profile.hpp"

namespace tasd::tasder {

/// Workload-level TASDER knobs.
struct WorkloadOptOptions {
  /// Maximum fraction of a layer's weight non-zeros a TASD-W series may
  /// drop (validated to keep >= 99 % agreement on the twin models).
  double weight_drop_budget = 0.02;
  /// TASD-A aggressiveness (paper's α).
  double alpha = 0.05;
  /// Channel-permutation pre-pass before TASD-W selection (paper §6.1):
  /// reorder weight columns to balance non-zeros across M-blocks, letting
  /// a sparser series fit the same drop budget. The GEMM stays exact (the
  /// activation operand is gathered in the permuted order).
  bool use_channel_permutation = false;
};

/// Decide a TASD series per layer. Sparse-weight networks get TASD-W
/// (chosen against materialized weights); dense-weight networks get
/// TASD-A if the hardware has TASD units. Architectures without
/// structured support (empty pattern set) get plain executions.
///
/// Layers are searched in parallel on rt::default_pool(); the result is
/// identical at every thread count. Each TASD-W choice leaves its plan
/// in plan_cache(), so compiling the same weights under the chosen
/// configs decomposes nothing.
std::vector<accel::LayerExecution> optimize_workload(
    const dnn::NetworkWorkload& net, const HwProfile& hw,
    const WorkloadOptOptions& opt = {});

/// Non-zeros a series whose terms all share block size M drops from a
/// matrix with the given M-block histogram (histogram[k] = blocks with
/// k non-zeros, sparse::block_nnz_histogram). Each term keeps a block's
/// N largest remaining values, so a block with k non-zeros keeps
/// min(k, ΣN) and drops max(0, k − ΣN): the result equals
/// build_plan(matrix, config).stats.dropped_nnz without decomposing.
/// Throws unless every term's M is histogram.size() - 1.
Index series_dropped_nnz(const std::vector<Index>& histogram,
                         const TasdConfig& config);

/// Plain executions (no TASD) for baselines.
std::vector<accel::LayerExecution> plain_executions(
    const dnn::NetworkWorkload& net);

}  // namespace tasd::tasder
