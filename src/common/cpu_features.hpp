// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The AVX2/FMA GEMM kernels (src/runtime/kernels_avx2.cpp) are compiled
// with their ISA flags whenever the compiler supports them, but
// executing them is gated here at runtime: GemmDispatch registers them
// only when avx2_available() says so — CPUID reports AVX2+FMA, the OS
// saves the YMM register state, and the operator did not force the
// scalar fallback with TASD_DISABLE_AVX2. That split keeps one binary
// correct on every x86 machine and gives CI a knob to exercise both
// dispatch paths (see docs/kernels.md § fallback chain).
#pragma once

#include <string>

namespace tasd {

/// Raw instruction-set capabilities of the executing CPU/OS pair.
struct CpuFeatures {
  bool avx2 = false;    ///< CPUID.7.0:EBX[5]
  bool fma = false;     ///< CPUID.1:ECX[12]
  bool os_ymm = false;  ///< OSXSAVE set and XCR0 enables XMM+YMM state

  /// The AVX2/FMA kernels may execute: ISA present and OS-supported.
  [[nodiscard]] bool avx2_usable() const { return avx2 && fma && os_ymm; }
};

/// Probe CPUID/XGETBV. All-false on non-x86 targets. Not cached; the
/// answer never changes within a process.
CpuFeatures detect_cpu_features();

/// Pure selection policy, exposed for tests: the AVX2 kernels are enabled
/// exactly when the hardware can run them and the operator did not
/// disable them.
bool avx2_enabled(const CpuFeatures& features, bool disabled_by_env);

/// True when the TASD_DISABLE_AVX2 environment variable forces the scalar
/// fallback (set to any non-empty value other than "0").
bool avx2_disabled_by_env();

/// Cached process-wide answer combining detect_cpu_features() and
/// TASD_DISABLE_AVX2 — what GemmDispatch consults at registry
/// construction.
bool avx2_available();

/// Identity of this host for the benchmark's run record: the CPUID brand
/// string plus the *effective* AVX2 kernel availability (after the env
/// disable), e.g.
///   "Intel(R) Xeon(R) ... CPU @ 2.20GHz|avx2=1".
/// Two runs are only comparable when they report the same string: the
/// registered kernel pool and its speeds are functions of these inputs.
std::string cpu_signature();

}  // namespace tasd
