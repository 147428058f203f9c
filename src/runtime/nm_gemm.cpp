#include "runtime/nm_gemm.hpp"

#include "common/error.hpp"

namespace tasd::rt {

namespace {

/// cs[i] += Σ_t term_t * bs[i], term-major through the policy's kernel.
/// Per output element the accumulation order is terms in series order, k
/// ascending within a term, and the kernels' per-element order does not
/// depend on column position or thread count — so one item, a packed
/// batch and a per-item loop all produce the same bits.
void accumulate(const DecompositionPlan& plan, std::span<const MatrixF> bs,
                std::span<MatrixF> cs, const ExecPolicy& policy) {
  const NmKernel kernel = resolve_nm(policy);
  ThreadPool& pool = resolve_pool(policy);
  for (const auto& t : plan.terms) kernel(t, bs, cs, pool);
}

}  // namespace

MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy) {
  TASD_CHECK_MSG(a.cols() == b.rows(), "N:M GEMM inner dim mismatch");
  MatrixF c(a.rows(), b.cols());
  resolve_nm(policy)(a, {&b, 1}, {&c, 1}, resolve_pool(policy));
  return c;
}

MatrixF series_gemm(const DecompositionPlan& plan, const MatrixF& b,
                    const ExecPolicy& policy) {
  TASD_CHECK_MSG(plan.cols == b.rows(),
                 "TASD series GEMM shape mismatch: series is "
                     << plan.rows << "x" << plan.cols << ", so b needs "
                     << plan.cols << " rows, got " << b.rows() << "x"
                     << b.cols());
  MatrixF c(plan.rows, b.cols());
  accumulate(plan, {&b, 1}, {&c, 1}, policy);
  return c;
}

std::vector<MatrixF> series_gemm_batch(const DecompositionPlan& plan,
                                       std::span<const MatrixF> bs,
                                       const ExecPolicy& policy) {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(plan.cols == bs[i].rows(),
                   "TASD series batch GEMM shape mismatch: series is "
                       << plan.rows << "x" << plan.cols
                       << ", so every item needs " << plan.cols << " rows, got "
                       << bs[i].rows() << "x" << bs[i].cols() << " at item "
                       << i);
    cs.emplace_back(plan.rows, bs[i].cols());
  }
  if (bs.empty()) return cs;
  if (bs.size() == 1) {  // one contiguous RHS already: no pack/unpack
    accumulate(plan, bs, cs, policy);
    return cs;
  }
  // Pack the batch once and run every term against the packed pair as a
  // batch of one (re-packing per term would waste copies on the serving
  // hot path).
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return cs;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp(plan.rows, off.back());
  accumulate(plan, {&bp, 1}, {&cp, 1}, policy);
  unpack_batch(cp, off, cs);
  return cs;
}

}  // namespace tasd::rt
