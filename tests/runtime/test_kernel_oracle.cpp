// Stored-order oracle for the N:M kernels: every table N:M kernel,
// and series_gemm over a whole series, must reproduce bit-for-bit the
// chain that walks each output element's stored values term by term in
// series order, columns ascending — one std::fma per value for the FMA
// family, one multiply then one add for the scalar family
// (docs/kernels.md). The differential sweep checks agreement within a
// family and a tolerance across families; this pins the bits themselves
// to the accumulation order.
//
// The series covers a row with no stored values in any term next to the
// series' longest row, a stored -0.0, and K % M != 0 for both block
// sizes. Its 21 rows are two full 8-row blocks of the AVX2 single-column
// path plus a ragged remainder; the first block's common stored prefix is
// 0 (its empty row), the second's is not. B holds an Inf and a NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "kernel_families.hpp"
#include "runtime/nm_gemm.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

using testing::rounding_family;

constexpr Index kRows = 21;  // 2 * 8 + 5
constexpr Index kCols = 30;  // 30 % 8 == 6, 30 % 4 == 2
constexpr Index kEmptyRow = 2;
constexpr Index kLongRow = 3;

/// An element of a term's to_dense() that the term stores: every
/// non-zero, and -0.0 (the series never stores +0.0).
bool stored(float v) { return v != 0.0F || std::signbit(v); }

/// Compress `dense` keeping every stored() element, -0.0 included.
sparse::NMSparseMatrix stream_of(const MatrixF& dense,
                                 sparse::NMPattern pattern) {
  std::vector<float> values;
  std::vector<std::uint32_t> col;
  std::vector<Index> row_ptr{0};
  for (Index r = 0; r < dense.rows(); ++r) {
    for (Index c = 0; c < dense.cols(); ++c) {
      if (!stored(dense(r, c))) continue;
      values.push_back(dense(r, c));
      col.push_back(static_cast<std::uint32_t>(c));
    }
    row_ptr.push_back(values.size());
  }
  return sparse::NMSparseMatrix::from_parts(pattern, dense.rows(),
                                            dense.cols(), std::move(values),
                                            std::move(col), std::move(row_ptr));
}

/// 2:8 + 1:8 from a TASD decomposition, then a hand-placed 2:4 term with
/// a -0.0, values in the ragged final block, a full row kLongRow (the
/// longest of the series) and rows of uneven length from row 8 on. Row
/// kEmptyRow is empty in every term.
std::shared_ptr<const DecompositionPlan> oracle_series() {
  Rng rng(5301);
  MatrixF w = random_unstructured(kRows, kCols, 0.6, Dist::kNormalStd1, rng);
  for (Index c = 0; c < kCols; ++c) w(kEmptyRow, c) = 0.0F;
  auto plan = std::make_shared<DecompositionPlan>(
      build_plan(w, TasdConfig::parse("2:8+1:8")));

  MatrixF extra(kRows, kCols);
  extra(0, 1) = -0.0F;
  extra(0, 2) = 0.5F;
  extra(4, 29) = 1.5F;
  extra(6, 28) = -2.25F;
  for (Index c = 0; c < kCols; ++c)
    if (c % 4 < 2) extra(kLongRow, c) = 0.25F * static_cast<float>(c + 1);
  for (Index r = 8; r < kRows; ++r)
    for (Index c = r % 4; c < std::min(kCols, 3 * (r - 6)); c += 4)
      extra(r, c) = static_cast<float>(rng.normal());
  plan->terms.push_back(stream_of(extra, sparse::NMPattern(2, 4)));
  return plan;
}

/// The stored-order chain, element by element.
MatrixF oracle(std::span<const sparse::NMSparseMatrix> terms,
               const MatrixF& b, bool fused) {
  MatrixF c(terms.front().rows(), b.cols());
  for (const auto& t : terms) {
    const MatrixF d = t.to_dense();
    for (Index r = 0; r < d.rows(); ++r)
      for (Index j = 0; j < b.cols(); ++j)
        for (Index k = 0; k < d.cols(); ++k) {
          const float v = d(r, k);
          if (!stored(v)) continue;
          c(r, j) = fused ? std::fma(v, b(k, j), c(r, j))
                          : c(r, j) + v * b(k, j);
        }
  }
  return c;
}

bool same_bits(const MatrixF& x, const MatrixF& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Stored values of `row` over every term of the series.
Index series_row_nnz(const DecompositionPlan& plan, Index row) {
  Index nnz = 0;
  for (const auto& t : plan.terms) nnz += t.row_ptr()[row + 1] - t.row_ptr()[row];
  return nnz;
}

TEST(KernelOracle, NmKernelsMatchStoredOrderChainBitwise) {
  const auto plan = oracle_series();
  ASSERT_EQ(plan->terms.size(), 3u);
  for (const auto& t : plan->terms)
    EXPECT_EQ(t.row_ptr()[kEmptyRow], t.row_ptr()[kEmptyRow + 1]);
  for (Index r = 0; r < kRows; ++r)
    EXPECT_LE(series_row_nnz(*plan, r), series_row_nnz(*plan, kLongRow)) << r;
  // Rows 8-15 store a value in every term: the second block's common
  // prefix is not empty.
  for (const auto& t : plan->terms)
    for (Index r = 8; r < 16; ++r) EXPECT_LT(t.row_ptr()[r], t.row_ptr()[r + 1]);

  // The NaN in B has the bits the hardware gives 0 * Inf, so a chain
  // that also makes a NaN (the stored -0.0 times the Inf, Inf - Inf)
  // holds one NaN bit pattern whichever operand an FMA propagates.
  volatile float zero = 0.0F;
  const float nan = zero * std::numeric_limits<float>::infinity();
  Rng rng(5302);
  std::vector<MatrixF> bs;
  for (const Index width : {1u, 2u, 3u, 8u, 17u, 40u}) {
    MatrixF b = random_dense(kCols, width, Dist::kNormalStd1, rng);
    b(1, 0) = std::numeric_limits<float>::infinity();
    b(5, width - 1) = nan;
    bs.push_back(std::move(b));
  }

  for (const auto& [kernel, fn] : nm_kernels()) {
    const bool fused = rounding_family(kernel) == "fma";
    for (const std::size_t threads : {1u, 3u, 5u}) {
      ThreadPool pool(threads);
      ExecPolicy policy;
      policy.pool = &pool;
      policy.nm_kernel = fn;
      const std::string ctx = "kernel=" + std::string(kernel) +
                              " threads=" + std::to_string(threads);
      for (const MatrixF& b : bs) {
        const std::string at = ctx + " width=" + std::to_string(b.cols());
        for (std::size_t t = 0; t < plan->terms.size(); ++t)
          EXPECT_TRUE(same_bits(nm_gemm(plan->terms[t], b, policy),
                                oracle({&plan->terms[t], 1}, b, fused)))
              << at << " term=" << t;
        EXPECT_TRUE(same_bits(series_gemm(*plan, b, policy),
                              oracle(plan->terms, b, fused)))
            << at << " series";
      }
      const auto batch = series_gemm_batch(*plan, bs, policy);
      ASSERT_EQ(batch.size(), bs.size());
      for (std::size_t i = 0; i < bs.size(); ++i)
        EXPECT_TRUE(same_bits(batch[i], oracle(plan->terms, bs[i], fused)))
            << ctx << " batch item=" << i;
    }
  }
}

}  // namespace
}  // namespace tasd::rt
