#include "runtime/nm_gemm.hpp"

#include "common/error.hpp"

namespace tasd::rt {

MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy) {
  TASD_CHECK_MSG(a.cols() == b.rows(), "N:M GEMM inner dim mismatch");
  MatrixF c(a.rows(), b.cols());
  resolve_nm(policy)(a, {&b, 1}, {&c, 1}, resolve_pool(policy));
  return c;
}

TasdSeriesGemm::TasdSeriesGemm(const Decomposition& decomposition)
    : rows_(decomposition.residual.rows()),
      cols_(decomposition.residual.cols()) {
  owned_terms_.reserve(decomposition.terms.size());
  for (const auto& t : decomposition.terms)
    owned_terms_.push_back(t.compressed());
}

TasdSeriesGemm::TasdSeriesGemm(std::shared_ptr<const DecompositionPlan> plan)
    : rows_(plan->rows), cols_(plan->cols), plan_(std::move(plan)) {}

MatrixF TasdSeriesGemm::multiply(const MatrixF& b,
                                 const ExecPolicy& policy) const {
  TASD_CHECK_MSG(cols_ == b.rows(),
                 "TASD series GEMM shape mismatch: series is "
                     << rows_ << "x" << cols_ << ", so b needs " << cols_
                     << " rows, got " << b.rows() << "x" << b.cols());
  MatrixF c(rows_, b.cols());
  accumulate({&b, 1}, {&c, 1}, policy);
  return c;
}

std::vector<MatrixF> TasdSeriesGemm::multiply_batch(
    std::span<const MatrixF> bs, const ExecPolicy& policy) const {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(cols_ == bs[i].rows(),
                   "TASD series batch GEMM shape mismatch: series is "
                       << rows_ << "x" << cols_ << ", so every item needs "
                       << cols_ << " rows, got " << bs[i].rows() << "x"
                       << bs[i].cols() << " at item " << i);
    cs.emplace_back(rows_, bs[i].cols());
  }
  if (bs.empty()) return cs;
  if (bs.size() == 1) {  // one contiguous RHS already: no pack/unpack
    accumulate(bs, cs, policy);
    return cs;
  }
  // Pack the batch once and run every term against the packed pair as a
  // batch of one (re-packing per term would waste copies on the serving
  // hot path).
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return cs;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp(rows_, off.back());
  accumulate({&bp, 1}, {&cp, 1}, policy);
  unpack_batch(cp, off, cs);
  return cs;
}

void TasdSeriesGemm::accumulate(std::span<const MatrixF> bs,
                                std::span<MatrixF> cs,
                                const ExecPolicy& policy) const {
  // Term-major: per output element the accumulation order is terms in
  // series order, k ascending within a term, and the kernels' per-element
  // order does not depend on column position or thread count — so one
  // item, a packed batch and a per-item loop all produce the same bits.
  const NmKernel kernel = resolve_nm(policy);
  ThreadPool& pool = resolve_pool(policy);
  for (const auto& t : terms()) kernel(t, bs, cs, pool);
}

Index TasdSeriesGemm::nnz() const {
  Index total = 0;
  for (const auto& t : terms()) total += t.nnz();
  return total;
}

}  // namespace tasd::rt
