// Shared helper for the kernel property/batch test suites.
#pragma once

#include <string>

namespace tasd::rt::testing {

/// The single-RHS kernel a batch kernel's output must match bitwise: a
/// SIMD batch kernel pairs with its same-family single-RHS sibling,
/// every scalar batch kernel with the scalar registry default (empty
/// name). Batched == looped holds *within* a rounding family; across
/// families results agree only to float tolerance (FMA vs mul+add —
/// docs/kernels.md).
inline std::string paired_single_kernel(const std::string& batch_kernel,
                                        bool dense) {
  if (batch_kernel.find("avx2") != std::string::npos)
    return dense ? "dense-avx2" : "nm-avx2";
  return {};
}

/// The rounding family a kernel name belongs to. Every "avx" kernel
/// issues exactly one FMA per k-step per output, so they share one
/// family and agree bitwise with each other; the scalar
/// tiled/serial/batch kernels form the mul+add family, and "reference"
/// is its own single-member family (same math as scalar but a
/// different accumulation order is not guaranteed). Across families
/// only float tolerance holds.
inline std::string rounding_family(const std::string& kernel) {
  if (kernel.find("avx") != std::string::npos) return "fma";
  if (kernel.find("reference") != std::string::npos) return "reference";
  return "scalar";
}

}  // namespace tasd::rt::testing
