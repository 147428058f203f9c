// Versioned on-disk store for CompiledNetwork artifacts — compile once,
// ship the bytes, cold-start a fleet of replicas with zero
// decompositions (ROADMAP item 3; the SparseRT / npu_compiler
// runtime-model pattern: ahead-of-time compile to a deployable blob,
// the runtime just executes it).
//
// save_artifact() serializes what each layer executes: a dense layer's
// weight, or a configured layer's TASD config, quality stats and N:M
// term streams (the in-memory arrays, verbatim) and no weight. Each
// section is keyed by a 128-bit content fingerprint: for a configured
// layer its plan's PlanCache key, taken at compile. load_artifact()
// reads the streams back — no decomposition runs — adopts the plans
// into the process-wide PlanCache under those keys (so later
// rt::compile() calls on the same weights hit too) and assembles a
// fully bound CompiledNetwork.
//
// Kernel bindings: an artifact stores no kernel names — they re-resolve
// through rt::best_dense()/best_nm() on the loading host, so an artifact
// saved on an AVX2 machine binds the scalar kernels on a machine without
// AVX2 and executes identically (term buffers are kernel-independent).
//
// Failure contract (asserted by tests/artifact/):
//  * wrong magic or unsupported version → Error(kFailedPrecondition)
//    (the file is not something this reader speaks)
//  * any corruption — truncation, short section, CRC mismatch, dense
//    weight/fingerprint mismatch, a term that NMSparseMatrix::from_parts
//    rejects — → Error(kInternal)
//    (data loss: the file claims to be ours but its bytes lie)
//  * unopenable path → Error(kInvalidArgument)
// A load either returns a verified network or throws; it never binds
// silently-wrong kernels or plans.
//
// Format layout: src/artifact/format.hpp and docs/artifact.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "runtime/compiled_network.hpp"

namespace tasd::rt {

/// Serialize `net` to `path` (format version artifact::kVersion). The
/// file fully reproduces the network's layers (dense weights, configs,
/// plans); compile options and kernel bindings are intentionally not
/// stored (see load_artifact). Throws tasd::Error on I/O failure.
void save_artifact(const CompiledNetwork& net, const std::string& path);

/// Load an artifact into a fully bound CompiledNetwork, performing zero
/// decompositions: plans are read back from the serialized term streams,
/// verified (per-section CRC, NMSparseMatrix::from_parts; dense weights
/// also against their content fingerprint), and adopted into the
/// process-wide PlanCache. `opt` plays the same role as in
/// rt::compile(): pool binding, kernel selection ("auto" re-resolves on
/// this host), measurement knobs. See the failure contract above.
CompiledNetwork load_artifact(const std::string& path,
                              const CompileOptions& opt = {});

/// Header + TOC of an artifact file, for tooling and tests. Verifies
/// magic, version and the TOC CRC but does not touch section payloads.
struct ArtifactLayerInfo {
  /// Of the weight bytes (dense), or the plan's PlanCache key, which is
  /// the fingerprint of the weight it decomposes (configured).
  ContentFingerprint fingerprint;
  bool configured = false;         ///< carries a TASD config + plan
  std::uint64_t section_offset = 0;
  std::uint64_t section_size = 0;
  std::uint32_t section_crc32 = 0;
};

struct ArtifactInfo {
  std::uint32_t version = 0;
  std::string name;  ///< the compiled network's name
  std::uint64_t file_bytes = 0;
  std::vector<ArtifactLayerInfo> layers;
};

ArtifactInfo inspect_artifact(const std::string& path);

}  // namespace tasd::rt
