// Tests for DecompositionPlan (direct-compression decomposition) and the
// process-wide PlanCache: term equivalence with the dense-path
// decompose(), stats equivalence with approx_stats(), hit/miss/eviction
// accounting, and the zero-redecomposition guarantee.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/approx_stats.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "tensor/generator.hpp"

namespace tasd {
namespace {

MatrixF test_matrix(Index rows, Index cols, double density,
                    std::uint64_t seed) {
  Rng rng(seed);
  return random_unstructured(rows, cols, density, Dist::kNormalStd1, rng);
}

TEST(DecompositionPlanBuild, TermsDecompressToDensePathTerms) {
  for (const char* cfg_str : {"2:4", "4:8+1:8", "2:8+1:8", "1:4"}) {
    const auto cfg = TasdConfig::parse(cfg_str);
    const MatrixF m = test_matrix(17, 30, 0.5, 42);  // ragged K
    const auto dense_path = decompose(m, cfg);
    const auto plan = build_plan(m, cfg);

    ASSERT_EQ(plan.terms.size(), dense_path.terms.size()) << cfg_str;
    EXPECT_EQ(plan.rows, m.rows());
    EXPECT_EQ(plan.cols, m.cols());
    for (std::size_t i = 0; i < plan.terms.size(); ++i) {
      EXPECT_EQ(plan.terms[i].pattern(), dense_path.terms[i].pattern);
      // Same stored values, same order, same dense reconstruction.
      const auto compressed = dense_path.terms[i].compressed();
      EXPECT_EQ(plan.terms[i].values(), compressed.values());
      EXPECT_EQ(plan.terms[i].col_index(), compressed.col_index());
      EXPECT_EQ(plan.terms[i].row_ptr(), compressed.row_ptr());
      EXPECT_TRUE(plan.terms[i].to_dense() == dense_path.terms[i].dense);
    }
  }
}

TEST(DecompositionPlanBuild, ApproximationBitIdenticalToDensePath) {
  const auto cfg = TasdConfig::parse("4:8+2:8");
  const MatrixF m = test_matrix(23, 40, 0.7, 43);
  EXPECT_TRUE(build_plan(m, cfg).approximation() ==
              decompose(m, cfg).approximation());
}

TEST(DecompositionPlanBuild, StatsMatchDensePathApproxStats) {
  const auto cfg = TasdConfig::parse("4:8+1:8");
  const MatrixF m = test_matrix(19, 32, 0.6, 44);
  const ApproxStats expected = approx_stats(m, decompose(m, cfg));
  const ApproxStats got = build_plan(m, cfg).stats;
  EXPECT_EQ(got.original_nnz, expected.original_nnz);
  EXPECT_EQ(got.kept_nnz, expected.kept_nnz);
  EXPECT_EQ(got.dropped_nnz, expected.dropped_nnz);
  EXPECT_DOUBLE_EQ(got.original_magnitude, expected.original_magnitude);
  EXPECT_DOUBLE_EQ(got.dropped_magnitude, expected.dropped_magnitude);
  EXPECT_DOUBLE_EQ(got.kept_magnitude, expected.kept_magnitude);
  EXPECT_DOUBLE_EQ(got.mse, expected.mse);
  EXPECT_DOUBLE_EQ(got.rel_frobenius_error, expected.rel_frobenius_error);
}

TEST(DecompositionPlanBuild, NnzSumsStoredValues) {
  const auto cfg = TasdConfig::parse("2:4+1:4");
  const MatrixF m = test_matrix(8, 16, 0.9, 45);
  const auto plan = build_plan(m, cfg);
  Index expected = 0;
  for (const auto& t : plan.terms) expected += t.nnz();
  EXPECT_EQ(plan.nnz(), expected);
  EXPECT_EQ(plan.nnz(), static_cast<Index>(plan.stats.kept_nnz));
}

TEST(PlanCacheBehavior, SecondLookupIsAHitWithZeroDecompositions) {
  auto& cache = plan_cache();
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF m = test_matrix(12, 24, 0.5, 1001);

  const auto before = cache.stats();
  const auto p1 = cache.get_or_build(m, cfg);
  const auto mid = cache.stats();
  EXPECT_EQ(mid.decompositions, before.decompositions + 1);

  const auto p2 = cache.get_or_build(m, cfg);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, mid.hits + 1);
  EXPECT_EQ(after.decompositions, mid.decompositions)
      << "second lookup must not decompose again";
  EXPECT_EQ(p1.get(), p2.get()) << "same cached plan object";
}

TEST(PlanCacheBehavior, EqualContentDifferentObjectSharesEntry) {
  auto& cache = plan_cache();
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF a = test_matrix(10, 20, 0.4, 1002);
  const MatrixF b = a;  // distinct allocation, same contents
  const auto p1 = cache.get_or_build(a, cfg);
  const auto before = cache.stats();
  const auto p2 = cache.get_or_build(b, cfg);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(PlanCacheBehavior, DifferentConfigOrContentMisses) {
  auto& cache = plan_cache();
  const MatrixF m = test_matrix(10, 16, 0.5, 1003);
  (void)cache.get_or_build(m, TasdConfig::parse("2:4"));
  const auto before = cache.stats();
  (void)cache.get_or_build(m, TasdConfig::parse("1:4"));
  EXPECT_EQ(cache.stats().misses, before.misses + 1);

  MatrixF changed = m;
  changed(0, 0) += 1.0F;
  const auto mid = cache.stats();
  (void)cache.get_or_build(changed, TasdConfig::parse("2:4"));
  EXPECT_EQ(cache.stats().misses, mid.misses + 1);
}

TEST(PlanCacheBehavior, LruEvictionAtCapacity) {
  PlanCache cache(2);
  const auto cfg = TasdConfig::parse("1:4");
  const MatrixF a = test_matrix(4, 8, 0.5, 2001);
  const MatrixF b = test_matrix(4, 8, 0.5, 2002);
  const MatrixF c = test_matrix(4, 8, 0.5, 2003);

  (void)cache.get_or_build(a, cfg);
  (void)cache.get_or_build(b, cfg);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_build(a, cfg);  // refresh a: b becomes LRU
  (void)cache.get_or_build(c, cfg);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  const auto before = cache.stats();
  (void)cache.get_or_build(a, cfg);
  EXPECT_EQ(cache.stats().hits, before.hits + 1) << "a survived";
  (void)cache.get_or_build(b, cfg);
  EXPECT_EQ(cache.stats().misses, before.misses + 1) << "b was evicted";
}

TEST(PlanCacheBehavior, ClearDropsPlansAndKeepsCounters) {
  PlanCache cache(8);
  const auto cfg = TasdConfig::parse("2:4");
  (void)cache.get_or_build(test_matrix(4, 8, 0.5, 3001), cfg);
  EXPECT_EQ(cache.size(), 1u);
  const auto stats = cache.stats();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, stats.misses);
}

TEST(PlanCacheBehavior, InsertPreloadedAdoptsWithoutDecomposing) {
  PlanCache cache(8);
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF m = test_matrix(8, 16, 0.5, 5001);
  auto plan = std::make_shared<const DecompositionPlan>(build_plan(m, cfg));

  const auto resident = cache.insert_preloaded(content_fingerprint(m), plan);
  const auto stats = cache.stats();
  EXPECT_EQ(resident.get(), plan.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.preloads, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.decompositions, 0u)
      << "adoption must count as neither hit, miss nor decomposition";

  // Later lookups of the same (matrix, config) hit the adopted entry.
  const auto p2 = cache.get_or_build(m, cfg);
  EXPECT_EQ(p2.get(), plan.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().decompositions, 0u);
}

TEST(PlanCacheBehavior, InsertPreloadedExistingEntryWins) {
  PlanCache cache(8);
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF m = test_matrix(8, 16, 0.5, 5002);
  const auto cached = cache.get_or_build(m, cfg);
  auto duplicate =
      std::make_shared<const DecompositionPlan>(build_plan(m, cfg));
  const auto resident =
      cache.insert_preloaded(content_fingerprint(m), duplicate);
  EXPECT_EQ(resident.get(), cached.get())
      << "a plan already resident keeps winning, preserving sharing";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().preloads, 1u);
}

TEST(PlanCacheBehavior, InsertPreloadedRejectsNullPlan) {
  PlanCache cache(8);
  const MatrixF m = test_matrix(8, 16, 0.5, 5003);
  EXPECT_THROW((void)cache.insert_preloaded(content_fingerprint(m), nullptr),
               Error);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheBehavior, InsertPreloadedKeysOnFingerprintShapeAndConfig) {
  // The key is (fingerprint, the plan's shape, the plan's config): a
  // same-shape weight with other bytes, or the same weight under another
  // config, still misses.
  PlanCache cache(8);
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF m = test_matrix(8, 16, 0.5, 5004);
  const MatrixF other = test_matrix(8, 16, 0.5, 5005);
  (void)cache.insert_preloaded(
      content_fingerprint(m),
      std::make_shared<const DecompositionPlan>(build_plan(m, cfg)));
  (void)cache.get_or_build(other, cfg);
  (void)cache.get_or_build(m, TasdConfig::parse("1:4"));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  (void)cache.get_or_build(m, cfg);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheBehavior, GetOrBuildWithFingerprintSharesTheKey) {
  // A caller that hashed the matrix itself hits the entry the plain form
  // built, and vice versa.
  PlanCache cache(8);
  const auto cfg = TasdConfig::parse("2:4");
  const MatrixF m = test_matrix(8, 16, 0.5, 5006);
  const auto p1 = cache.get_or_build(content_fingerprint(m), m, cfg);
  const auto p2 = cache.get_or_build(m, cfg);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().decompositions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheIntegration, ApproxStatsAndApproximateAreCached) {
  auto& cache = plan_cache();
  const auto cfg = TasdConfig::parse("4:8+1:8");
  const MatrixF m = test_matrix(14, 32, 0.6, 4001);

  (void)approx_stats(m, cfg);  // may miss (first sight of m)
  const auto before = cache.stats();
  (void)approx_stats(m, cfg);
  const MatrixF approx = approximate(m, cfg);
  const auto after = cache.stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "repeat stats/approximate calls must not re-decompose";
  EXPECT_GE(after.hits, before.hits + 2);
  EXPECT_TRUE(approx == decompose(m, cfg).approximation());
}

}  // namespace
}  // namespace tasd
