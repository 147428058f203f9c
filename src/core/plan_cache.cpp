#include "core/plan_cache.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <list>
#include <unordered_map>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "sparse/view.hpp"

namespace tasd {

Index DecompositionPlan::nnz() const {
  Index total = 0;
  for (const auto& t : terms) total += t.nnz();
  return total;
}

Index DecompositionPlan::storage_bytes() const {
  Index total = 0;
  for (const auto& t : terms) total += t.storage_bytes();
  return total;
}

MatrixF DecompositionPlan::approximation() const {
  MatrixF acc(rows, cols);
  for (const auto& t : terms) {
    const auto& values = t.values();
    const auto& col = t.col_index();
    const auto& row_ptr = t.row_ptr();
    for (Index r = 0; r < rows; ++r) {
      float* row = acc.data() + r * cols;
      for (Index s = row_ptr[r]; s < row_ptr[r + 1]; ++s)
        row[col[s]] += values[s];
    }
  }
  return acc;
}

DecompositionPlan build_plan(const MatrixF& matrix, const TasdConfig& config) {
  DecompositionPlan plan;
  plan.config = config;
  plan.rows = matrix.rows();
  plan.cols = matrix.cols();

  MatrixF residual = matrix;
  plan.terms.reserve(config.terms.size());
  for (const auto& pattern : config.terms)
    plan.terms.push_back(sparse::extract_term_inplace(residual, pattern));

  // Quality stats straight from the residual: the decomposition moves
  // elements (never recombines them), so original - approximation ==
  // residual exactly, and every stat approx_stats() derives from the
  // dense approximation can be derived from the residual instead. The
  // accumulation orders below match tensor/norms.cpp so the numbers are
  // bit-identical to the dense-path approx_stats().
  ApproxStats& s = plan.stats;
  s.original_nnz = matrix.nnz();
  s.dropped_nnz = residual.nnz();
  s.kept_nnz = s.original_nnz - s.dropped_nnz;
  double orig_mag = 0.0, res_mag = 0.0, orig_sq = 0.0, res_sq = 0.0;
  for (float v : matrix.flat()) {
    orig_mag += std::fabs(static_cast<double>(v));
    orig_sq += static_cast<double>(v) * v;
  }
  for (float v : residual.flat()) {
    res_mag += std::fabs(static_cast<double>(v));
    res_sq += static_cast<double>(v) * v;
  }
  s.original_magnitude = orig_mag;
  s.dropped_magnitude = res_mag;
  s.kept_magnitude = orig_mag - res_mag;
  s.mse = matrix.empty() ? 0.0
                         : res_sq / static_cast<double>(matrix.size());
  const double orig_norm = std::sqrt(orig_sq);
  s.rel_frobenius_error =
      orig_norm == 0.0 ? 0.0 : std::sqrt(res_sq) / orig_norm;
  return plan;
}

namespace {

struct PlanKey {
  std::uint64_t fp_lo = 0;  ///< FNV-1a over the matrix bytes
  std::uint64_t fp_hi = 0;  ///< independent second hash (see fingerprint)
  Index rows = 0;
  Index cols = 0;
  std::string config;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.fp_lo);
    h ^= std::hash<std::uint64_t>{}(k.fp_hi) + 0x9e3779b97f4a7c15ULL +
         (h << 6);
    h ^= std::hash<Index>{}(k.rows) + 0x9e3779b97f4a7c15ULL + (h << 6);
    h ^= std::hash<Index>{}(k.cols) + 0x9e3779b97f4a7c15ULL + (h << 6);
    h ^= std::hash<std::string>{}(k.config) + (h >> 2);
    return h;
  }
};

}  // namespace

// Plans are the inputs to every downstream numeric result, so a single
// 64-bit hash would be too thin a guarantee — see the header contract.
// Byte-order note: the hash runs over the in-memory float bytes, so the
// value is endian-specific; the artifact store records and verifies it
// on the same convention (docs/artifact.md).
ContentFingerprint content_fingerprint(const MatrixF& m) {
  std::uint64_t fnv = 1469598103934665603ULL;
  std::uint64_t mix = 0x2b992ddfa23249d6ULL;
  const auto flat = m.flat();
  const auto* bytes = reinterpret_cast<const unsigned char*>(flat.data());
  const std::size_t n = flat.size() * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    fnv ^= bytes[i];
    fnv *= 1099511628211ULL;
    mix = (mix ^ bytes[i]) * 0x9e3779b97f4a7c15ULL;
    mix = (mix << 27) | (mix >> 37);
  }
  return {fnv, mix};
}

struct PlanCache::Impl {
  mutable Mutex mutex;
  std::size_t capacity TASD_GUARDED_BY(mutex) = 1;
  PlanCacheStats stats TASD_GUARDED_BY(mutex);
  // LRU: most recent at the front.
  using LruList =
      std::list<std::pair<PlanKey, std::shared_ptr<const DecompositionPlan>>>;
  LruList lru TASD_GUARDED_BY(mutex);
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> index
      TASD_GUARDED_BY(mutex);

  /// Drop least-recently-used plans until the cache fits its capacity,
  /// counting each as an eviction.
  void evict_over_capacity() TASD_REQUIRES(mutex) {
    while (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      ++stats.evictions;
    }
  }
};

PlanCache::PlanCache(std::size_t capacity) : impl_(new Impl) {
  MutexLock lock(impl_->mutex);
  impl_->capacity = std::max<std::size_t>(1, capacity);
}

PlanCache::~PlanCache() = default;

PlanCache& PlanCache::instance() {
  static PlanCache cache([] {
    if (const char* env = std::getenv("TASD_PLAN_CACHE_CAPACITY")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v > 0)
        return static_cast<std::size_t>(v);
    }
    return std::size_t{256};
  }());
  return cache;
}

std::shared_ptr<const DecompositionPlan> PlanCache::get_or_build(
    const MatrixF& matrix, const TasdConfig& config) {
  const auto fp = content_fingerprint(matrix);
  PlanKey key{fp.lo, fp.hi, matrix.rows(), matrix.cols(), config.str()};
  {
    MutexLock lock(impl_->mutex);
    if (auto it = impl_->index.find(key); it != impl_->index.end()) {
      ++impl_->stats.hits;
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      return it->second->second;
    }
    ++impl_->stats.misses;
  }

  // Build outside the lock: decompositions are the expensive part and
  // independent builds may proceed concurrently. A racing builder for
  // the same key just produces the same (bit-identical) plan; the first
  // insert wins.
  auto plan = std::make_shared<const DecompositionPlan>(
      build_plan(matrix, config));

  MutexLock lock(impl_->mutex);
  ++impl_->stats.decompositions;
  if (auto it = impl_->index.find(key); it != impl_->index.end())
    return it->second->second;
  impl_->lru.emplace_front(key, plan);
  impl_->index.emplace(std::move(key), impl_->lru.begin());
  impl_->evict_over_capacity();
  return plan;
}

std::shared_ptr<const DecompositionPlan> PlanCache::insert_preloaded(
    const MatrixF& matrix, std::shared_ptr<const DecompositionPlan> plan) {
  TASD_CHECK_MSG(plan != nullptr, "insert_preloaded requires a plan");
  TASD_CHECK_MSG(plan->rows == matrix.rows() && plan->cols == matrix.cols(),
                 "preloaded plan is " << plan->rows << "x" << plan->cols
                                      << ", matrix is " << matrix.rows() << "x"
                                      << matrix.cols());
  const auto fp = content_fingerprint(matrix);
  PlanKey key{fp.lo, fp.hi, matrix.rows(), matrix.cols(), plan->config.str()};

  MutexLock lock(impl_->mutex);
  ++impl_->stats.preloads;
  if (auto it = impl_->index.find(key); it != impl_->index.end()) {
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    return it->second->second;
  }
  impl_->lru.emplace_front(key, plan);
  impl_->index.emplace(std::move(key), impl_->lru.begin());
  impl_->evict_over_capacity();
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(impl_->mutex);
  return impl_->stats;
}

std::size_t PlanCache::size() const {
  MutexLock lock(impl_->mutex);
  return impl_->lru.size();
}

void PlanCache::clear() {
  MutexLock lock(impl_->mutex);
  impl_->index.clear();
  impl_->lru.clear();
}

void PlanCache::set_capacity(std::size_t capacity) {
  MutexLock lock(impl_->mutex);
  impl_->capacity = std::max<std::size_t>(1, capacity);
  impl_->evict_over_capacity();
}

PlanCache& plan_cache() { return PlanCache::instance(); }

}  // namespace tasd
