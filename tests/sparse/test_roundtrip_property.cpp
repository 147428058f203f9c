// Round-trip property sweeps across formats, patterns, and densities.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sparse/nm_matrix.hpp"
#include "sparse/view.hpp"
#include "tensor/generator.hpp"

namespace tasd::sparse {
namespace {

struct RoundTripCase {
  int n, m;
  double density;
  Index rows, cols;
};

void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << c.n << ":" << c.m << " d=" << c.density << " " << c.rows << "x"
      << c.cols;
}

class NmRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(NmRoundTrip, ViewCompressDecompressExact) {
  const auto p = GetParam();
  Rng rng(1000 + p.n * 13 + p.m + p.cols);
  const MatrixF dense =
      random_unstructured(p.rows, p.cols, p.density, Dist::kNormalStd1, rng);
  const NMPattern pattern(p.n, p.m);
  const MatrixF view = nm_view(dense, pattern);
  const NMSparseMatrix compressed(view, pattern);
  EXPECT_EQ(compressed.to_dense(), view);
  EXPECT_EQ(compressed.nnz(), view.nnz());
  EXPECT_LE(compressed.nnz(),
            (p.rows * ((p.cols + p.m - 1) / p.m)) *
                static_cast<Index>(p.n));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NmRoundTrip,
    ::testing::Values(RoundTripCase{1, 4, 0.1, 8, 32},
                      RoundTripCase{2, 4, 0.5, 8, 32},
                      RoundTripCase{3, 4, 0.9, 8, 32},
                      RoundTripCase{1, 8, 0.05, 16, 64},
                      RoundTripCase{2, 8, 0.3, 16, 64},
                      RoundTripCase{4, 8, 0.7, 16, 64},
                      RoundTripCase{7, 8, 1.0, 16, 64},
                      RoundTripCase{2, 16, 0.2, 8, 48},
                      RoundTripCase{2, 8, 0.5, 4, 30},    // ragged
                      RoundTripCase{1, 4, 0.5, 1, 3},     // tiny ragged
                      RoundTripCase{4, 8, 0.0, 8, 32}));  // all-zero

}  // namespace
}  // namespace tasd::sparse
