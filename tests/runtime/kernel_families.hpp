// Shared helpers for the kernel property/batch test suites.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt::testing {

/// The rounding family a kernel name belongs to. Every "avx" kernel
/// issues exactly one FMA per k-step per output, so they share one
/// family and agree bitwise with each other; the scalar
/// tiled/serial kernels form the mul+add family, and "reference"
/// is its own single-member family (same math as scalar but a
/// different accumulation order is not guaranteed). Across families
/// only float tolerance holds.
inline std::string rounding_family(std::string_view kernel) {
  if (kernel.find("avx") != std::string_view::npos) return "fma";
  if (kernel.find("reference") != std::string_view::npos) return "reference";
  return "scalar";
}

/// cs[i] = A * bs[i] through one kernel-table entry, called directly.
template <class Kernel, class A>
std::vector<MatrixF> call_kernel(Kernel kernel, const A& a,
                                 std::span<const MatrixF> bs,
                                 ThreadPool& pool) {
  std::vector<MatrixF> cs;
  for (const MatrixF& b : bs) cs.emplace_back(a.rows(), b.cols());
  kernel(a, bs, cs, pool);
  return cs;
}

}  // namespace tasd::rt::testing
