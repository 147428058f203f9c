// CPU feature detection and the AVX2 enablement policy (the gate the
// kernel table consults before listing the SIMD kernels).
#include "common/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tasd {
namespace {

TEST(CpuFeatures, DetectionIsStableWithinAProcess) {
  const CpuFeatures a = detect_cpu_features();
  const CpuFeatures b = detect_cpu_features();
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.fma, b.fma);
  EXPECT_EQ(a.os_ymm, b.os_ymm);
}

TEST(CpuFeatures, Avx2UsableRequiresIsaAndOsSupport) {
  CpuFeatures f;
  EXPECT_FALSE(f.avx2_usable());
  f.avx2 = true;
  f.fma = true;
  EXPECT_FALSE(f.avx2_usable()) << "OS must save YMM state";
  f.os_ymm = true;
  EXPECT_TRUE(f.avx2_usable());
  f.fma = false;
  EXPECT_FALSE(f.avx2_usable()) << "the kernels use FMA instructions";
}

TEST(CpuFeatures, EnablementPolicyHonorsTheDisableFlag) {
  // The pure policy behind avx2_available(): hardware support is
  // necessary, and TASD_DISABLE_AVX2 vetoes it — the forced-fallback
  // path the scalar CI leg runs.
  CpuFeatures capable;
  capable.avx2 = capable.fma = capable.os_ymm = true;
  EXPECT_TRUE(avx2_enabled(capable, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx2_enabled(capable, /*disabled_by_env=*/true));
  EXPECT_FALSE(avx2_enabled(CpuFeatures{}, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx2_enabled(CpuFeatures{}, /*disabled_by_env=*/true));
}

TEST(CpuFeatures, DisableFlagParsesLikeABoolean) {
  // Empty and "0" mean "not disabled"; anything else disables. Restore
  // the variable afterwards so sibling tests see the process's real
  // environment.
  const char* saved = std::getenv("TASD_DISABLE_AVX2");
  const std::string saved_value = saved ? saved : "";
  const bool had = saved != nullptr;

  unsetenv("TASD_DISABLE_AVX2");
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "", 1);
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "0", 1);
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "1", 1);
  EXPECT_TRUE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "yes", 1);
  EXPECT_TRUE(avx2_disabled_by_env());

  if (had)
    setenv("TASD_DISABLE_AVX2", saved_value.c_str(), 1);
  else
    unsetenv("TASD_DISABLE_AVX2");
}

TEST(CpuFeatures, CachedAvailabilityMatchesThePolicy) {
  // avx2_available() caches the process-start answer; it must equal the
  // policy applied to the current probe as long as the env var did not
  // change after first use (this suite restores it above).
  EXPECT_EQ(avx2_available(),
            avx2_enabled(detect_cpu_features(), avx2_disabled_by_env()));
}

TEST(CpuFeatures, SignatureIsStableAndReflectsTheCandidatePool) {
  // cpu_signature() is the host identity in the benchmark's run record:
  // it must be stable within a process and end in the *effective* AVX2
  // availability (a run with AVX2 disabled binds other kernels on the
  // same CPU, so its numbers are not comparable to one with it on).
  const std::string a = cpu_signature();
  EXPECT_EQ(a, cpu_signature());
  EXPECT_FALSE(a.empty());
  const std::string avx2_tag = std::string("avx2=") +
                               (avx2_available() ? "1" : "0");
  ASSERT_GE(a.size(), avx2_tag.size());
  EXPECT_EQ(a.substr(a.size() - avx2_tag.size()), avx2_tag) << a;
  EXPECT_NE(a.find('|'), std::string::npos) << a;
}

}  // namespace
}  // namespace tasd
