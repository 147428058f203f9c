#include "sparse/nm_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sparse/view.hpp"
#include "tensor/generator.hpp"

namespace tasd::sparse {
namespace {

TEST(NMSparseMatrix, RejectsNonConformingInput) {
  MatrixF dense(2, 8, 1.0F);
  EXPECT_THROW(NMSparseMatrix(dense, NMPattern(2, 4)), tasd::Error);
}

TEST(NMSparseMatrix, RoundTripExact) {
  Rng rng(21);
  const MatrixF m = random_nm_structured(8, 32, 2, 4, Dist::kNormalStd1, rng);
  const NMSparseMatrix c(m, NMPattern(2, 4));
  EXPECT_EQ(c.to_dense(), m);  // bit-exact
  EXPECT_EQ(c.nnz(), m.nnz());
}

TEST(NMSparseMatrix, RoundTripRaggedColumns) {
  Rng rng(22);
  // 10 columns with M=4: final block is 2 wide.
  const MatrixF m = random_nm_structured(3, 10, 1, 4, Dist::kNormalStd1, rng);
  const NMSparseMatrix c(m, NMPattern(1, 4));
  EXPECT_EQ(c.to_dense(), m);
  EXPECT_EQ(c.blocks_per_row(), 3u);  // ceil(10/4)
}

TEST(NMSparseMatrix, SparsityMatchesDense) {
  Rng rng(23);
  const MatrixF m = random_nm_structured(4, 16, 2, 8, Dist::kNormalStd1, rng);
  const NMSparseMatrix c(m, NMPattern(2, 8));
  EXPECT_DOUBLE_EQ(c.sparsity(), m.sparsity());
}

TEST(NMSparseMatrix, StorageSmallerThanDense) {
  Rng rng(24);
  const MatrixF m = random_nm_structured(16, 64, 2, 8, Dist::kNormalStd1, rng);
  const NMSparseMatrix c(m, NMPattern(2, 8));
  // 2:8 keeps 1/4 of the values: compressed size should be well under
  // half the dense footprint even with metadata.
  EXPECT_LT(c.storage_bytes(), c.dense_bytes() / 2);
}

TEST(NMSparseMatrix, StorageAccountsReservedSlots) {
  // Hardware reserves N slots per block regardless of occupancy: an
  // all-zero matrix still pays for the slots.
  MatrixF zeros(4, 16);
  const NMSparseMatrix c(zeros, NMPattern(2, 4));
  EXPECT_GT(c.storage_bytes(), 0u);
  EXPECT_EQ(c.nnz(), 0u);
}

TEST(NMSparseMatrix, EmptyMatrix) {
  MatrixF empty(0, 0);
  const NMSparseMatrix c(empty, NMPattern(2, 4));
  EXPECT_EQ(c.nnz(), 0u);
  EXPECT_EQ(c.to_dense().size(), 0u);
}

TEST(NMSparseMatrix, ViewThenCompressAlwaysWorks) {
  Rng rng(25);
  // Arbitrary unstructured matrix: project to a view first, then
  // compression must accept it.
  const MatrixF m = random_unstructured(8, 32, 0.7, Dist::kNormalStd1, rng);
  const MatrixF v = nm_view(m, NMPattern(2, 4));
  EXPECT_NO_THROW(NMSparseMatrix(v, NMPattern(2, 4)));
}

TEST(NMSparseMatrix, RowStreamConsistent) {
  Rng rng(26);
  const MatrixF m = random_nm_structured(4, 16, 3, 8, Dist::kNormalStd1, rng);
  const NMSparseMatrix c(m, NMPattern(3, 8));
  const auto& ptr = c.row_ptr();
  const auto& col = c.col_index();
  ASSERT_EQ(ptr.size(), 4u + 1u);
  ASSERT_EQ(col.size(), c.nnz());
  EXPECT_EQ(ptr.front(), 0u);
  EXPECT_EQ(ptr.back(), c.nnz());
  for (std::size_t r = 0; r + 1 < ptr.size(); ++r) {
    EXPECT_LE(ptr[r], ptr[r + 1]);
    std::size_t per_block[2] = {0, 0};
    for (std::size_t s = ptr[r]; s < ptr[r + 1]; ++s) {
      EXPECT_LT(col[s], 16u);
      if (s > ptr[r]) {
        EXPECT_LT(col[s - 1], col[s]);  // ascending
      }
      ++per_block[col[s] / 8];
      EXPECT_EQ(c.values()[s], m(r, col[s]));
    }
    EXPECT_LE(per_block[0], 3u);  // at most N per block
    EXPECT_LE(per_block[1], 3u);
  }
}

TEST(NMSparseMatrix, IndexFootprintScalesWithStoredValuesNotBlocks) {
  // 4 x 65536 at 2:4 is 65536 blocks, 512 KB at one 8 B offset per
  // block. The stream's index payload is one row pointer per row plus
  // one u32 column per stored value, whatever the block count.
  MatrixF dense(4, 65536);
  for (Index r = 0; r < 4; ++r) {
    dense(r, r) = 1.0F + static_cast<float>(r);
    dense(r, 65535 - r) = -2.0F;
  }
  const NMPattern pattern(2, 4);
  MatrixF residual = dense;
  for (const NMSparseMatrix& c :
       {NMSparseMatrix(dense, pattern),
        extract_term_inplace(residual, pattern)}) {
    ASSERT_EQ(c.nnz(), 8u);
    EXPECT_EQ(c.blocks_per_row() * c.rows(), 65536u);
    const Index payload = c.row_ptr().size() * sizeof(Index) +
                          c.col_index().size() * sizeof(std::uint32_t);
    EXPECT_EQ(payload, 5 * sizeof(Index) + 8 * sizeof(std::uint32_t));
    // Reserved capacity is bounded by the stored values too.
    EXPECT_LT(c.row_ptr().capacity() * sizeof(Index) +
                  c.col_index().capacity() * sizeof(std::uint32_t),
              1024u);
    EXPECT_EQ(c.to_dense(), dense);
  }
}

TEST(NMSparseMatrix, FromPartsAcceptsAValidStream) {
  // 2 x 10 at 2:4: row 0 fills block 0 and the ragged block 2, row 1 is
  // empty.
  const auto c = NMSparseMatrix::from_parts(NMPattern(2, 4), 2, 10,
                                            {1.0F, 2.0F, 3.0F, -0.0F},
                                            {0, 3, 8, 9}, {0, 4, 4});
  EXPECT_EQ(c.nnz(), 4u);
  const MatrixF d = c.to_dense();
  EXPECT_EQ(d(0, 3), 2.0F);
  EXPECT_EQ(d(0, 8), 3.0F);
  EXPECT_TRUE(std::signbit(d(0, 9)));
}

struct BadStream {
  const char* name;
  Index rows, cols;
  std::vector<float> values;
  std::vector<std::uint32_t> col;
  std::vector<Index> row_ptr;
};

// Every case is 2:4. The first is the block-layout reproduction: three
// values in one block of a 1x8 row, one of them at in-block index 200.
const BadStream kBadStreams[] = {
    {"overfull_block_and_far_column", 1, 8, {1, 2, 3}, {0, 1, 200}, {0, 3}},
    {"overfull_block", 1, 8, {1, 2, 3}, {0, 1, 2}, {0, 3}},
    {"overfull_ragged_block", 1, 10, {1, 2, 3}, {8, 9, 10}, {0, 3}},
    {"column_out_of_range", 1, 8, {1}, {8}, {0, 1}},
    {"column_past_ragged_end", 1, 10, {1}, {11}, {0, 1}},
    {"duplicate_column", 1, 8, {1, 2}, {4, 4}, {0, 2}},
    {"descending_columns", 1, 8, {1, 2}, {5, 1}, {0, 2}},
    {"row_ptr_too_short", 2, 8, {1}, {0}, {0, 1}},
    {"row_ptr_not_from_zero", 1, 8, {1}, {0}, {1, 1}},
    {"row_ptr_not_to_nnz", 1, 8, {1, 2}, {0, 4}, {0, 1}},
    {"row_ptr_decreasing", 2, 8, {1, 2}, {0, 4}, {0, 5, 2}},
    {"values_columns_mismatch", 1, 8, {1, 2}, {0}, {0, 2}},
};

class FromPartsRejects : public ::testing::TestWithParam<BadStream> {};

TEST_P(FromPartsRejects, WithInvalidArgument) {
  const BadStream& p = GetParam();
  try {
    (void)NMSparseMatrix::from_parts(NMPattern(2, 4), p.rows, p.cols,
                                     p.values, p.col, p.row_ptr);
    ADD_FAILURE() << p.name << " was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kInvalidArgument) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, FromPartsRejects,
                         ::testing::ValuesIn(kBadStreams),
                         [](const ::testing::TestParamInfo<BadStream>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace tasd::sparse
