// Versioned on-disk store for CompiledNetwork artifacts — compile once,
// ship the bytes, cold-start a fleet of replicas with zero
// decompositions (ROADMAP item 3; the SparseRT / npu_compiler
// runtime-model pattern: ahead-of-time compile to a deployable blob,
// the runtime just executes it).
//
// save_artifact() serializes everything rt::compile() derived from the
// weights: per layer the weight matrix, the TASD config, the plan's
// compressed N:M term buffers and its quality stats, each section keyed
// by the weight's 128-bit content fingerprint (the PlanCache key).
// load_artifact() rebuilds the plans straight from the compressed
// buffers — no decomposition runs — adopts them into the process-wide
// PlanCache (so later rt::compile() calls on the same weights hit too)
// and assembles a fully bound CompiledNetwork.
//
// Kernel bindings: an artifact stores no kernel names — they re-resolve
// through rt::best_dense()/best_nm() on the loading host, so an artifact
// saved on an AVX2 machine binds the scalar kernels on a machine without
// AVX2 and executes identically (term buffers are kernel-independent).
//
// Failure contract (asserted by tests/artifact/):
//  * wrong magic or unsupported version → Error(kFailedPrecondition)
//    (the file is not something this reader speaks)
//  * any corruption — truncation, short section, CRC mismatch,
//    fingerprint mismatch, inconsistent plan — → Error(kInternal)
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

/// Serialize `net` to `path` in TASDART1 format. The file fully
/// reproduces the network's layers (weights, configs, plans); compile
/// options and kernel bindings are intentionally not stored (see
/// load_artifact). Throws tasd::Error on I/O failure.
void save_artifact(const CompiledNetwork& net, const std::string& path);

/// Load a TASDART1 file into a fully bound CompiledNetwork, performing
/// zero decompositions: plans are reconstructed from the serialized
/// compressed buffers, verified (per-section CRC + weight content
/// fingerprint), and — when opt.measure.use_plan_cache — adopted into
/// the process-wide PlanCache. `opt` plays the same role as in
/// rt::compile(): pool binding, kernel selection ("auto" re-resolves on
/// this host), measurement knobs. See the failure contract above.
CompiledNetwork load_artifact(const std::string& path,
                              const CompileOptions& opt = {});

/// Header + TOC of an artifact file, for tooling and tests. Verifies
/// magic, version and the TOC CRC but does not touch section payloads.
struct ArtifactLayerInfo {
  ContentFingerprint fingerprint;  ///< of the layer's weight bytes
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
