// Shared helper for the kernel property/batch test suites.
#pragma once

#include <string>

namespace tasd::rt::testing {

/// The rounding family a kernel name belongs to. Every "avx" kernel
/// issues exactly one FMA per k-step per output, so they share one
/// family and agree bitwise with each other; the scalar
/// tiled/serial kernels form the mul+add family, and "reference"
/// is its own single-member family (same math as scalar but a
/// different accumulation order is not guaranteed). Across families
/// only float tolerance holds.
inline std::string rounding_family(const std::string& kernel) {
  if (kernel.find("avx") != std::string::npos) return "fma";
  if (kernel.find("reference") != std::string::npos) return "reference";
  return "scalar";
}

}  // namespace tasd::rt::testing
