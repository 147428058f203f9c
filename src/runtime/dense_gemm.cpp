#include "runtime/dense_gemm.hpp"

#include "common/error.hpp"

namespace tasd::rt {

MatrixF dense_gemm(const MatrixF& a, const MatrixF& b,
                   const ExecPolicy& policy) {
  MatrixF c(a.rows(), b.cols());
  dense_gemm_batch_accumulate(a, {&b, 1}, {&c, 1}, policy);
  return c;
}

std::vector<MatrixF> dense_gemm_batch(const MatrixF& a,
                                      std::span<const MatrixF> bs,
                                      const ExecPolicy& policy) {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (const MatrixF& b : bs) cs.emplace_back(a.rows(), b.cols());
  dense_gemm_batch_accumulate(a, bs, cs, policy);
  return cs;
}

void dense_gemm_batch_accumulate(const MatrixF& a, std::span<const MatrixF> bs,
                                 std::span<MatrixF> cs,
                                 const ExecPolicy& policy) {
  TASD_CHECK_MSG(bs.size() == cs.size(), "batch GEMM item count mismatch");
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(a.cols() == bs[i].rows(),
                   "GEMM inner dim mismatch at item " << i);
    TASD_CHECK(cs[i].rows() == a.rows() && cs[i].cols() == bs[i].cols());
  }
  if (bs.empty()) return;
  GemmDispatch::instance().dense(policy.dense_kernel)(a, bs, cs,
                                                      resolve_pool(policy));
}

}  // namespace tasd::rt
