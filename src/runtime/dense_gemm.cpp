#include "runtime/dense_gemm.hpp"

#include "common/error.hpp"

namespace tasd::rt {

MatrixF dense_gemm(const MatrixF& a, const MatrixF& b,
                   const ExecPolicy& policy) {
  TASD_CHECK_MSG(a.cols() == b.rows(), "GEMM inner dim mismatch");
  MatrixF c(a.rows(), b.cols());
  resolve_dense(policy)(a, {&b, 1}, {&c, 1}, resolve_pool(policy));
  return c;
}

std::vector<MatrixF> dense_gemm_batch(const MatrixF& a,
                                      std::span<const MatrixF> bs,
                                      const ExecPolicy& policy) {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(a.cols() == bs[i].rows(),
                   "GEMM inner dim mismatch at item " << i);
    cs.emplace_back(a.rows(), bs[i].cols());
  }
  if (!bs.empty()) resolve_dense(policy)(a, bs, cs, resolve_pool(policy));
  return cs;
}

}  // namespace tasd::rt
