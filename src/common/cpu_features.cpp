#include "common/cpu_features.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace tasd {

#if defined(__x86_64__) || defined(__i386__)

namespace {

// XGETBV(0) without requiring -mxsave at compile time; only executed
// after CPUID confirms OSXSAVE.
unsigned long long read_xcr0() {
  unsigned int eax = 0, edx = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                   : "=a"(eax), "=d"(edx)
                   : "c"(0));
  return (static_cast<unsigned long long>(edx) << 32) | eax;
}

/// CPUID brand string (leaves 0x80000002-4), trimmed of the leading
/// spaces vendors pad it with; "unknown-x86" when the leaves are absent.
std::string brand_string() {
  unsigned int regs[4] = {0, 0, 0, 0};
  if (!__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) ||
      regs[0] < 0x80000004U)
    return "unknown-x86";
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002U + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, 16);
  }
  const char* p = brand;
  while (*p == ' ') ++p;
  return *p != '\0' ? std::string(p) : std::string("unknown-x86");
}

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.fma = (ecx & bit_FMA) != 0;
  const bool osxsave = (ecx & bit_OSXSAVE) != 0;
  const unsigned long long xcr0 = osxsave ? read_xcr0() : 0;
  // XCR0 bits 1 (SSE) and 2 (AVX): the OS context-switches YMM state.
  f.os_ymm = (xcr0 & 0x6) == 0x6;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
    f.avx2 = (ebx & bit_AVX2) != 0;
  return f;
}

namespace {
std::string host_brand() { return brand_string(); }
}  // namespace

#else

CpuFeatures detect_cpu_features() { return {}; }

namespace {
std::string host_brand() { return "non-x86"; }
}  // namespace

#endif

bool avx2_enabled(const CpuFeatures& features, bool disabled_by_env) {
  return features.avx2_usable() && !disabled_by_env;
}

bool avx2_disabled_by_env() {
  const char* v = std::getenv("TASD_DISABLE_AVX2");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

bool avx2_available() {
  static const bool available =
      avx2_enabled(detect_cpu_features(), avx2_disabled_by_env());
  return available;
}

std::string cpu_signature() {
  if (const char* v = std::getenv("TASD_CPU_SIGNATURE");
      v != nullptr && *v != '\0')
    return v;
  // The env disable folds into the signature because it changes the
  // candidate pool a tuning run measured over — an artifact tuned with
  // AVX2 disabled must not restore onto the same CPU with it enabled.
  static const std::string brand = host_brand();
  std::string sig = brand;
  sig += "|avx2=";
  sig += avx2_available() ? '1' : '0';
  return sig;
}

}  // namespace tasd
