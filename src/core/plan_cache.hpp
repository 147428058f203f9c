// Decomposition plans and the process-wide plan cache.
//
// A DecompositionPlan is the execution-path form of a TASD decomposition:
// every term is held directly in the compressed N:M format the runtime
// kernels consume — no dense per-term MatrixF is ever materialized — plus
// the approximation-quality statistics TASDER's search needs. Plans for
// the same (matrix contents, shape, config) are expensive to rebuild and
// bit-identical every time, so PlanCache memoizes them: the engine,
// TASDER and the benches all decompose a given weight matrix exactly
// once.
//
// The dense-term Decomposition in core/decompose.hpp remains the
// functional model used by tests and the accuracy experiments;
// build_plan() peels the same series with the same selection rule, so
// plan terms decompress to exactly the Decomposition's dense terms.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/approx_stats.hpp"
#include "core/config.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd {

/// Compressed, execution-ready decomposition of one matrix.
struct DecompositionPlan {
  TasdConfig config;
  Index rows = 0;
  Index cols = 0;
  /// One compressed term per series pattern, in series order.
  std::vector<sparse::NMSparseMatrix> terms;
  /// Quality of the approximation vs. the original matrix (identical to
  /// approx_stats(original, decompose(original, config))).
  ApproxStats stats;

  /// Total stored non-zeros across terms.
  [[nodiscard]] Index nnz() const;

  /// Compressed storage footprint in bytes across terms (hardware-style
  /// encoding, see NMSparseMatrix::storage_bytes) — the per-plan memory
  /// a serving process pays to share one decomposition across a batch.
  [[nodiscard]] Index storage_bytes() const;

  /// Dense Σ terms (bit-identical to Decomposition::approximation():
  /// every element lives in at most one term, so no summation-order
  /// effects exist).
  [[nodiscard]] MatrixF approximation() const;
};

/// Decompose `matrix` straight into compressed form (no per-term dense
/// intermediates). Uncached building block; prefer plan_cache().
DecompositionPlan build_plan(const MatrixF& matrix, const TasdConfig& config);

/// 128-bit content fingerprint over a matrix's bytes: FNV-1a plus an
/// independent multiply-rotate hash. Cheap relative to a decomposition,
/// stable across runs and processes, and a simultaneous collision of
/// both 64-bit halves (plus shape and config) is ~2^-128. The PlanCache
/// keys on it. The artifact store (src/artifact/) writes it next to
/// every serialized section: a configured layer's entry is its plan's
/// cache key (taken at compile, when the weight was last seen), and a
/// dense layer's lets a load verify the weight bytes it reads back.
struct ContentFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const ContentFingerprint&,
                         const ContentFingerprint&) = default;
};

ContentFingerprint content_fingerprint(const MatrixF& m);

/// Cache observability counters, monotonic since the cache was built;
/// callers measure deltas between two stats() snapshots.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t decompositions = 0;  ///< plans actually built (== misses)
  std::uint64_t evictions = 0;
  std::uint64_t preloads = 0;  ///< plans adopted via insert_preloaded()
};

/// Thread-safe LRU cache of DecompositionPlans keyed on (matrix
/// fingerprint, shape, config). The fingerprint hashes the full matrix
/// contents, so logically-equal matrices share an entry regardless of
/// where they live.
class PlanCache {
 public:
  /// Process-wide instance. Capacity defaults to 256 plans and can be
  /// overridden with the TASD_PLAN_CACHE_CAPACITY environment variable.
  static PlanCache& instance();

  explicit PlanCache(std::size_t capacity);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Return the cached plan for (matrix, config), building and inserting
  /// it on miss.
  std::shared_ptr<const DecompositionPlan> get_or_build(
      const MatrixF& matrix, const TasdConfig& config);

  /// The same, for a caller that already holds `fingerprint` ==
  /// content_fingerprint(matrix) and keeps it (rt::compile stores it as
  /// the layer's artifact key), so the matrix is hashed once.
  std::shared_ptr<const DecompositionPlan> get_or_build(
      const ContentFingerprint& fingerprint, const MatrixF& matrix,
      const TasdConfig& config);

  /// Adopt a plan that was built elsewhere (the artifact loader,
  /// src/artifact/) under the key get_or_build() uses for a matrix with
  /// this content fingerprint and the plan's shape and config — so later
  /// compiles of the same weights hit without decomposing. Counts as
  /// neither hit, miss nor decomposition; PlanCacheStats::preloads tracks
  /// it. Returns the resident plan: when the key is already cached the
  /// existing entry wins, preserving sharing between artifacts that were
  /// loaded or compiled earlier. A null plan throws.
  std::shared_ptr<const DecompositionPlan> insert_preloaded(
      const ContentFingerprint& fingerprint,
      std::shared_ptr<const DecompositionPlan> plan);

  [[nodiscard]] PlanCacheStats stats() const;

  /// Number of cached plans.
  [[nodiscard]] std::size_t size() const;

  /// Drop every cached plan (stats are kept).
  void clear();

  /// Change capacity; evicts LRU entries if shrinking below size().
  void set_capacity(std::size_t capacity);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shorthand for PlanCache::instance().
PlanCache& plan_cache();

}  // namespace tasd
