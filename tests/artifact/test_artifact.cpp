// Round-trip and corruption-matrix tests for the TASDART1 artifact
// store (ISSUE 9 acceptance): a load either reproduces the compiled
// network bit-for-bit with zero decompositions, or fails with the
// documented error code — never a silently-wrong network.
#include "artifact/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>

#include "artifact/format.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "runtime/gemm_dispatch.hpp"
#include "tensor/generator.hpp"
#include "tensor/io.hpp"

namespace tasd::rt {
namespace {

/// Two sparse layers plus one dense layer; seeds distinct from every
/// other suite so cross-suite PlanCache hits can't mask the counters.
dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny-artifact";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 48;
  l1.k = 256;
  l1.n = 32;
  l1.weight_density = 0.1;
  l1.weight_seed = 9105;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.m = 96;
  l2.k = 120;  // ragged final 2:8 block: cols % 8 != 0
  l2.weight_seed = 9106;
  dnn::GemmWorkload l3 = l1;
  l3.name = "c-dense";
  l3.m = 32;
  l3.k = 64;
  l3.weight_density = 1.0;
  l3.weight_seed = 9107;
  net.layers = {l1, l2, l3};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), TasdConfig::parse("2:8+1:8"),
          std::nullopt};
}

/// Small on purpose: the whole-file fuzz matrix loads the artifact once
/// per byte, so the file should stay a few KiB.
dnn::NetworkWorkload small_net() {
  dnn::NetworkWorkload net;
  net.name = "small-artifact";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 8;
  l1.k = 16;
  l1.n = 8;
  l1.weight_density = 0.4;
  l1.weight_seed = 9301;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_density = 1.0;
  l2.weight_seed = 9302;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> small_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

/// RAII temp file path (removed on destruction).
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

/// The error code a callable fails with (nullopt = it didn't throw).
template <typename Fn>
std::optional<Error::Code> failure_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

void patch_u32(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint32_t v) {
  const std::uint32_t le = io::to_little_endian(v);
  std::memcpy(bytes.data() + offset, &le, sizeof le);
}

void patch_u64(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint64_t v) {
  const std::uint64_t le = io::to_little_endian(v);
  std::memcpy(bytes.data() + offset, &le, sizeof le);
}

std::uint64_t peek_u64(const std::vector<unsigned char>& bytes,
                       std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return io::from_little_endian(v);
}

/// Save tiny_net once and return the file bytes for patching.
std::vector<unsigned char> saved_bytes(const TempPath& tmp) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);
  return io::read_file(tmp.path);
}

TEST(Artifact, RoundTripIsBitExactAtEveryThreadCount) {
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();
  TempPath tmp("tasd_roundtrip.tasdart");

  Rng rng(921);
  std::vector<MatrixF> inputs;
  for (std::size_t i = 0; i < net.layers.size(); ++i)
    inputs.push_back(
        random_dense(net.layers[i].k, 9, Dist::kNormalStd1, rng));
  std::vector<MatrixF> batch;
  for (const Index cols : {1u, 7u, 0u, 16u})
    batch.push_back(
        random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));

  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, cfgs, opt);
    save_artifact(engine, tmp.path);
    const auto loaded = load_artifact(tmp.path, opt);

    ASSERT_EQ(loaded.layer_count(), engine.layer_count());
    EXPECT_EQ(loaded.name(), engine.name());
    EXPECT_EQ(loaded.configured_count(), engine.configured_count());
    EXPECT_EQ(loaded.plan_bytes(), engine.plan_bytes());
    EXPECT_EQ(loaded.artifact_bytes(), engine.artifact_bytes());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const auto& a = engine.layer(i);
      const auto& b = loaded.layer(i);
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.weight, a.weight) << "layer " << i;
      EXPECT_EQ(b.config.has_value(), a.config.has_value());
      EXPECT_DOUBLE_EQ(b.kept_nnz_fraction, a.kept_nnz_fraction);
      EXPECT_EQ(loaded.run(i, inputs[i]), engine.run(i, inputs[i]))
          << "layer " << i << " threads=" << threads;
    }
    const auto want = engine.run_batch(0, batch);
    const auto got = loaded.run_batch(0, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q)
      EXPECT_EQ(got[q], want[q]) << "threads=" << threads << " item=" << q;
  }
}

TEST(Artifact, LoadPerformsZeroDecompositions) {
  TempPath tmp("tasd_zerodecomp.tasdart");
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);

  // Start cold: no resident plans for these weights.
  plan_cache().clear();
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, {});
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "load_artifact must reconstruct plans, never rebuild them";
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.preloads, before.preloads + 2)
      << "one preload per configured layer";
  EXPECT_EQ(loaded.configured_count(), 2u);
  for (std::size_t i = 0; i < loaded.layer_count(); ++i)
    EXPECT_EQ(bool(loaded.layer(i).series), bool(loaded.layer(i).config));
}

TEST(Artifact, LoadAdoptsPlansSoLaterCompilesHit) {
  TempPath tmp("tasd_adopt.tasdart");
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();
  save_artifact(compile(net, cfgs, {}), tmp.path);

  plan_cache().clear();
  const auto loaded = load_artifact(tmp.path, {});
  const auto before = plan_cache().stats();
  const auto recompiled = compile(net, cfgs, {});
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "compiling weights an artifact preloaded must hit the cache";
  EXPECT_EQ(after.hits, before.hits + 2);
  // Same resident plan object on both sides.
  EXPECT_EQ(recompiled.layer(0).plan.get(), loaded.layer(0).plan.get());
}

TEST(Artifact, CacheOptOutLoadStaysPrivate) {
  TempPath tmp("tasd_private.tasdart");
  save_artifact(compile(tiny_net(), mixed_configs(), {}), tmp.path);
  plan_cache().clear();
  CompileOptions opt;
  opt.measure.use_plan_cache = false;
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, opt);
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.preloads, before.preloads);
  EXPECT_EQ(plan_cache().size(), 0u);
  EXPECT_EQ(loaded.configured_count(), 2u);
}

TEST(Artifact, InspectReportsHeaderAndToc) {
  TempPath tmp("tasd_inspect.tasdart");
  const auto bytes = saved_bytes(tmp);
  const auto info = inspect_artifact(tmp.path);
  EXPECT_EQ(info.version, artifact::kVersion);
  EXPECT_EQ(info.name, "tiny-artifact");
  EXPECT_EQ(info.file_bytes, bytes.size());
  ASSERT_EQ(info.layers.size(), 3u);
  EXPECT_TRUE(info.layers[0].configured);
  EXPECT_TRUE(info.layers[1].configured);
  EXPECT_FALSE(info.layers[2].configured);
  for (std::size_t b = artifact::kHeaderTocCrcOffset + 4;
       b < artifact::kHeaderBytes; ++b)
    EXPECT_EQ(bytes[b], 0) << "reserved header byte " << b;
  for (const auto& l : info.layers) {
    EXPECT_EQ(l.section_offset % artifact::kSectionAlign, 0u);
    EXPECT_GT(l.section_size, 0u);
    EXPECT_LE(l.section_offset + l.section_size, bytes.size());
  }
}

TEST(Artifact, UnopenablePathIsInvalidArgument) {
  EXPECT_EQ(failure_code([] {
              (void)load_artifact("/nonexistent/dir/net.tasdart", {});
            }),
            Error::Code::kInvalidArgument);
}

TEST(Artifact, BadMagicIsFailedPrecondition) {
  TempPath tmp("tasd_badmagic.tasdart");
  auto bytes = saved_bytes(tmp);
  bytes[0] = 'X';
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kFailedPrecondition);
}

TEST(Artifact, UnsupportedVersionIsFailedPrecondition) {
  TempPath tmp("tasd_version.tasdart");
  auto bytes = saved_bytes(tmp);
  patch_u32(bytes, artifact::kHeaderVersionOffset, artifact::kVersion + 1);
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kFailedPrecondition);
}

TEST(Artifact, FlippedPayloadBitIsInternal) {
  // A single flipped bit inside the last section: the section CRC (not
  // the TOC CRC, which never covers payloads) must catch it.
  TempPath tmp("tasd_bitflip.tasdart");
  auto bytes = saved_bytes(tmp);
  bytes.back() ^= 0x10;
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kInternal);
}

TEST(Artifact, TruncationIsInternal) {
  TempPath tmp("tasd_trunc.tasdart");
  const auto bytes = saved_bytes(tmp);
  // Mid-TOC truncation and a stub shorter than the magic.
  for (const std::size_t keep : {artifact::kHeaderBytes + 8, std::size_t{4}}) {
    io::write_file(tmp.path, std::span(bytes).subspan(0, keep));
    EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
              Error::Code::kInternal)
        << "kept " << keep << " bytes";
  }
}

TEST(Artifact, WrappingTocOffsetIsInternal) {
  // The header carries no CRC, so a TOC offset chosen to make
  // toc_offset + toc_bytes wrap past 2^64 back into the file must be
  // refused before the TOC CRC reads anything — by both entry points.
  TempPath tmp("tasd_wrap.tasdart");
  const auto clean = saved_bytes(tmp);
  struct Patch {
    std::uint32_t layer_count;
    std::uint64_t toc_offset;
  };
  const std::uint64_t all_ones_toc =
      std::uint64_t{0xFFFFFFFFu} * artifact::kTocEntryBytes;
  for (const Patch p : {Patch{0xFFFFFFFFu, 0 - all_ones_toc + 64},
                        Patch{1u, 0 - std::uint64_t{16}}}) {
    auto bytes = clean;
    patch_u32(bytes, artifact::kHeaderLayerCountOffset, p.layer_count);
    patch_u64(bytes, artifact::kHeaderTocOffsetOffset, p.toc_offset);
    io::write_file(tmp.path, bytes);
    EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
              Error::Code::kInternal)
        << "layer_count " << p.layer_count;
    EXPECT_EQ(failure_code([&] { (void)inspect_artifact(tmp.path); }),
              Error::Code::kInternal)
        << "layer_count " << p.layer_count;
  }
}

TEST(Artifact, ReservedHeaderBytesAreIgnored) {
  // Header bytes [44, 64) and bytes past the last section are ignored,
  // so a file that fills them — as files that carried a trailing
  // kernel-tuning section did — loads exactly like the clean file: the
  // static binding, the same outputs, zero decompositions.
  TempPath tmp("tasd_reserved.tasdart");
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);
  auto bytes = io::read_file(tmp.path);
  patch_u32(bytes, 44, 0xDEADBEEFu);  // formerly a section CRC
  patch_u64(bytes, 48, 64);           // formerly its offset
  patch_u64(bytes, 56, 8);            // formerly its size
  // Trailing bytes past the last section, inside the claimed file size.
  bytes.insert(bytes.end(), 24, 0x5A);
  patch_u64(bytes, artifact::kHeaderFileSizeOffset, bytes.size());
  io::write_file(tmp.path, bytes);

  plan_cache().clear();  // start cold: a rebuild would show as a miss
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, {});
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions);
  EXPECT_EQ(after.misses, before.misses);

  const auto& dispatch = GemmDispatch::instance();
  Rng rng(9330);
  ASSERT_EQ(loaded.layer_count(), engine.layer_count());
  for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
    const auto& l = loaded.layer(i);
    const std::string want =
        l.series ? dispatch.best_nm() : dispatch.best_dense();
    EXPECT_EQ(l.kernel, want) << "layer " << i;
    EXPECT_EQ(l.batch_kernel, want) << "layer " << i;
    const MatrixF x = random_dense(l.k, 5, Dist::kNormalStd1, rng);
    EXPECT_EQ(loaded.run(i, x), engine.run(i, x)) << "layer " << i;
  }
}

TEST(Artifact, FingerprintMismatchIsInternal) {
  // Re-point layer 0's TOC entry at a fingerprint that does not hash its
  // weight, fixing up the TOC CRC so only the fingerprint gate can fire:
  // the load must refuse to pair a weight with someone else's plan.
  TempPath tmp("tasd_fp.tasdart");
  auto bytes = saved_bytes(tmp);
  const std::uint64_t toc_offset =
      peek_u64(bytes, artifact::kHeaderTocOffsetOffset);
  const std::uint64_t fp_lo =
      peek_u64(bytes, toc_offset + artifact::kTocFpLoOffset);
  patch_u64(bytes, toc_offset + artifact::kTocFpLoOffset, fp_lo ^ 1);
  const std::size_t toc_bytes = 3 * artifact::kTocEntryBytes;
  patch_u32(bytes, artifact::kHeaderTocCrcOffset,
            artifact::crc32(bytes.data() + toc_offset, toc_bytes));
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kInternal);
}

/// File offsets of layer 0's first term payloads (see write_section in
/// artifact.cpp): its in-block index bytes and its block-offset array.
struct TermPayload {
  std::size_t in_block_index = 0;
  std::uint64_t value_count = 0;
  std::size_t block_offsets = 0;
  std::uint64_t offset_count = 0;
};

TermPayload first_term_payload(const std::vector<unsigned char>& bytes) {
  const std::uint64_t toc = peek_u64(bytes, artifact::kHeaderTocOffsetOffset);
  const std::size_t section =
      peek_u64(bytes, toc + artifact::kTocSectionOffsetOffset);
  std::uint32_t name_len;
  std::memcpy(&name_len, bytes.data() + section, sizeof name_len);
  const auto align8 = [section](std::size_t pos) {
    return section + (pos - section + 7) / 8 * 8;
  };
  std::size_t pos = align8(section + 4 + io::from_little_endian(name_len));
  const std::uint64_t m = peek_u64(bytes, pos);
  const std::uint64_t k = peek_u64(bytes, pos + 8);
  pos = align8(pos + 32 + m * k * sizeof(float));  // shape, flag, weight
  const std::uint64_t terms = peek_u64(bytes, pos);
  pos += 8 + terms * 8 + 64;  // patterns, ApproxStats
  pos += 24;                  // first term: n, m, rows, cols
  TermPayload p;
  p.value_count = peek_u64(bytes, pos);
  p.in_block_index = pos + 8 + p.value_count * sizeof(float);
  pos = align8(p.in_block_index + p.value_count);
  p.offset_count = peek_u64(bytes, pos);
  p.block_offsets = pos + 8;
  return p;
}

/// Recompute layer 0's section CRC, its TOC entry and the TOC CRC, so
/// only the structural validation can catch an edit.
void reseal_layer0(std::vector<unsigned char>& bytes) {
  const std::uint64_t toc = peek_u64(bytes, artifact::kHeaderTocOffsetOffset);
  const std::uint64_t section =
      peek_u64(bytes, toc + artifact::kTocSectionOffsetOffset);
  const std::uint64_t size =
      peek_u64(bytes, toc + artifact::kTocSectionSizeOffset);
  patch_u32(bytes, toc + artifact::kTocSectionCrcOffset,
            artifact::crc32(bytes.data() + section, size));
  patch_u32(bytes, artifact::kHeaderTocCrcOffset,
            artifact::crc32(bytes.data() + toc, 3 * artifact::kTocEntryBytes));
}

TEST(Artifact, StructurallyInvalidTermPastTheCrcIsInternal) {
  // Layer 0 is 2:4. Each edit keeps every CRC valid and breaks one
  // invariant of the block encoding or of the stream it decodes to; the
  // load must fail typed before any kernel could index past B.
  TempPath tmp("tasd_structure.tasdart");
  const auto clean = saved_bytes(tmp);
  const TermPayload p = first_term_payload(clean);
  ASSERT_GT(p.value_count, 2u);
  ASSERT_EQ(p.offset_count, 48u * (256u / 4u) + 1u);
  const std::size_t last_offset = p.block_offsets + (p.offset_count - 1) * 8;
  ASSERT_EQ(peek_u64(clean, p.block_offsets), 0u);
  ASSERT_EQ(peek_u64(clean, last_offset), p.value_count);
  // Row 0 spans blocks 0..63; its end offset is entry 64.
  const std::uint64_t row0_end = peek_u64(clean, p.block_offsets + 64 * 8);
  ASSERT_GT(row0_end, 2u);
  ASSERT_LT(row0_end, p.value_count);

  const char* const kEdits[] = {
      "in-block index >= M",
      "block offset past the values",
      "block offsets decrease",
      "first block offset nonzero",
      "row 0 piled into its first block",
  };
  for (std::size_t e = 0; e < std::size(kEdits); ++e) {
    auto bytes = clean;
    switch (e) {
      case 0:
        bytes[p.in_block_index] = 200;
        break;
      case 1:
        patch_u64(bytes, p.block_offsets + 8, p.value_count + 1);
        break;
      case 2:
        patch_u64(bytes, p.block_offsets + 8, row0_end + 1);
        break;
      case 3:
        patch_u64(bytes, p.block_offsets, 1);
        break;
      default:
        for (std::size_t blk = 1; blk < 64; ++blk)
          patch_u64(bytes, p.block_offsets + blk * 8, row0_end);
    }
    reseal_layer0(bytes);
    io::write_file(tmp.path, bytes);
    EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
              Error::Code::kInternal)
        << kEdits[e];
  }
  // The untouched file still loads.
  io::write_file(tmp.path, clean);
  EXPECT_NO_THROW((void)load_artifact(tmp.path, {}));
}

TEST(Artifact, EveryByteFlipFailsTypedOrLoadsIdentically) {
  // The fuzz matrix: XOR one byte at a time across the ENTIRE file —
  // header (reserved bytes included), name, TOC, section payloads and
  // alignment padding. Each mutation must either throw a typed Error
  // (kFailedPrecondition when the file no longer identifies as ours,
  // kInternal for corruption) or load a network whose bindings and
  // outputs are identical to the pristine one (flips in padding, the
  // reserved header bytes or non-semantic name bytes) — never a crash,
  // another exception type, or a silently different network.
  TempPath tmp("tasd_fuzz.tasdart");
  CompileOptions opt;
  opt.measure.use_plan_cache = false;
  const auto engine = compile(small_net(), small_configs(), opt);
  save_artifact(engine, tmp.path);
  const auto pristine = io::read_file(tmp.path);

  Rng rng(9320);
  const MatrixF probe = random_dense(16, 3, Dist::kNormalStd1, rng);
  const MatrixF want0 = engine.run(0, probe);
  const MatrixF want1 = engine.run(1, probe);

  std::size_t typed = 0, benign = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    auto bytes = pristine;
    bytes[pos] ^= 0xA5;
    io::write_file(tmp.path, bytes);
    try {
      const auto loaded = load_artifact(tmp.path, opt);
      ++benign;
      for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
        ASSERT_EQ(loaded.layer(i).kernel, engine.layer(i).kernel)
            << "silent re-binding after flipping byte " << pos;
        ASSERT_EQ(loaded.layer(i).batch_kernel, engine.layer(i).batch_kernel)
            << "byte " << pos;
      }
      ASSERT_EQ(loaded.run(0, probe), want0) << "byte " << pos;
      ASSERT_EQ(loaded.run(1, probe), want1) << "byte " << pos;
    } catch (const Error& e) {
      ++typed;
      ASSERT_TRUE(e.code() == Error::Code::kFailedPrecondition ||
                  e.code() == Error::Code::kInternal)
          << "byte " << pos << ": unexpected code "
          << static_cast<int>(e.code());
    }
    // Any other exception (or a crash) propagates and fails the test.
  }
  // CRCs cover all payloads, so the overwhelming majority of flips must
  // be caught; only padding/reserved/name flips may load.
  EXPECT_GT(typed, pristine.size() / 2);
  EXPECT_EQ(typed + benign, pristine.size());
}

TEST(Artifact, ArtifactBytesCoversWeightsAndPlans) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  Index weight_bytes = 0;
  for (std::size_t i = 0; i < engine.layer_count(); ++i)
    weight_bytes += engine.layer(i).weight.size() * sizeof(float);
  EXPECT_GT(engine.artifact_bytes(), engine.plan_bytes());
  EXPECT_GT(engine.artifact_bytes(), weight_bytes);
  EXPECT_LE(engine.artifact_bytes(),
            weight_bytes + engine.plan_bytes() + 4096)
      << "metadata overhead should stay small for a tiny net";
}

}  // namespace
}  // namespace tasd::rt
