// Round-trip and corruption-matrix tests for the TASDART artifact store:
// a load either reproduces the compiled network bit-for-bit with zero
// decompositions, or fails with the documented error code — never a
// silently-wrong network.
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

/// True when both ranges hold the same bytes (so -0.0 != +0.0, and a
/// NaN equals itself).
template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
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
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const auto& a = engine.layer(i);
      const auto& b = loaded.layer(i);
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.m, a.m);
      EXPECT_EQ(b.k, a.k);
      EXPECT_EQ(b.config.has_value(), a.config.has_value());
      if (a.plan) {
        // A configured layer is its plan: no weight on either side, and
        // every term's stream and the approximation match bitwise.
        ASSERT_TRUE(b.plan) << "layer " << i;
        const double kept_a = static_cast<double>(a.plan->nnz()) /
                              static_cast<double>(a.m * a.k);
        const double kept_b = static_cast<double>(b.plan->nnz()) /
                              static_cast<double>(b.m * b.k);
        EXPECT_DOUBLE_EQ(kept_b, kept_a) << "layer " << i;
        EXPECT_TRUE(a.weight.empty()) << "layer " << i;
        EXPECT_TRUE(b.weight.empty()) << "layer " << i;
        EXPECT_EQ(b.fingerprint, a.fingerprint) << "layer " << i;
        ASSERT_EQ(b.plan->terms.size(), a.plan->terms.size());
        for (std::size_t t = 0; t < a.plan->terms.size(); ++t) {
          const auto& ta = a.plan->terms[t];
          const auto& tb = b.plan->terms[t];
          EXPECT_EQ(tb.pattern(), ta.pattern());
          EXPECT_TRUE(same_bits<float>(tb.values(), ta.values()))
              << "layer " << i << " term " << t;
          EXPECT_TRUE(same_bits<std::uint32_t>(tb.col_index(), ta.col_index()))
              << "layer " << i << " term " << t;
          EXPECT_TRUE(same_bits<Index>(tb.row_ptr(), ta.row_ptr()))
              << "layer " << i << " term " << t;
        }
        EXPECT_TRUE(same_bits<float>(b.plan->approximation().flat(),
                                     a.plan->approximation().flat()))
            << "layer " << i;
      } else {
        EXPECT_FALSE(b.plan) << "layer " << i;
        EXPECT_TRUE(same_bits<float>(b.weight.flat(), a.weight.flat()))
            << "layer " << i;
      }
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
    EXPECT_EQ(bool(loaded.layer(i).plan), bool(loaded.layer(i).config));
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
  // Version 1 and any future version fail typed, at load and inspect.
  TempPath tmp("tasd_version.tasdart");
  const auto clean = saved_bytes(tmp);
  ASSERT_EQ(artifact::kVersion, 2u);
  for (const std::uint32_t version : {1u, artifact::kVersion + 1}) {
    auto bytes = clean;
    patch_u32(bytes, artifact::kHeaderVersionOffset, version);
    io::write_file(tmp.path, bytes);
    EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
              Error::Code::kFailedPrecondition)
        << "version " << version;
    EXPECT_EQ(failure_code([&] { (void)inspect_artifact(tmp.path); }),
              Error::Code::kFailedPrecondition)
        << "version " << version;
  }
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

  Rng rng(9330);
  ASSERT_EQ(loaded.layer_count(), engine.layer_count());
  for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
    const auto& l = loaded.layer(i);
    const std::string_view want =
        l.plan ? best_nm().name : best_dense().name;
    EXPECT_EQ(l.kernel, want) << "layer " << i;
    EXPECT_EQ(l.batch_kernel, want) << "layer " << i;
    const MatrixF x = random_dense(l.k, 5, Dist::kNormalStd1, rng);
    EXPECT_EQ(loaded.run(i, x), engine.run(i, x)) << "layer " << i;
  }
}

TEST(Artifact, FingerprintMismatchIsInternal) {
  // Re-point the dense layer's (layer 2's) TOC entry at a fingerprint
  // that does not hash its weight, fixing up the TOC CRC so only the
  // fingerprint gate can fire: the load must refuse a weight that is not
  // the one the entry names. (A configured layer stores no weight; its
  // entry is its plan's cache key.)
  TempPath tmp("tasd_fp.tasdart");
  auto bytes = saved_bytes(tmp);
  const std::uint64_t toc_offset =
      peek_u64(bytes, artifact::kHeaderTocOffsetOffset);
  const std::uint64_t entry = toc_offset + 2 * artifact::kTocEntryBytes;
  const std::uint64_t fp_lo = peek_u64(bytes, entry + artifact::kTocFpLoOffset);
  patch_u64(bytes, entry + artifact::kTocFpLoOffset, fp_lo ^ 1);
  const std::size_t toc_bytes = 3 * artifact::kTocEntryBytes;
  patch_u32(bytes, artifact::kHeaderTocCrcOffset,
            artifact::crc32(bytes.data() + toc_offset, toc_bytes));
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kInternal);
}

/// File offsets of layer 0's first term (see write_section in
/// artifact.cpp): its value count, and its column and row-pointer arrays.
struct TermPayload {
  std::uint64_t rows = 0, cols = 0;
  std::size_t value_count_at = 0;
  std::uint64_t value_count = 0;
  std::size_t col_index = 0;
  std::size_t row_ptr = 0;
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
  TermPayload p;
  p.rows = peek_u64(bytes, pos);
  p.cols = peek_u64(bytes, pos + 8);
  pos += 24;  // m, k, n
  const std::uint64_t terms = peek_u64(bytes, pos);
  pos += 8 + terms * 8 + 64;  // term count, patterns, ApproxStats
  p.value_count_at = pos;
  p.value_count = peek_u64(bytes, pos);
  p.col_index = pos + 8 + p.value_count * sizeof(float);
  p.row_ptr = align8(p.col_index + p.value_count * sizeof(std::uint32_t));
  return p;
}

std::uint32_t peek_u32(const std::vector<unsigned char>& bytes,
                       std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return io::from_little_endian(v);
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
  // Layer 0 is 2:4 over a 48x256 weight. Each edit keeps every CRC valid
  // and breaks one invariant of the stored stream — from_parts (or, for
  // the value count, the reader's bounds check) must fail the load typed
  // before any kernel could index past B.
  TempPath tmp("tasd_structure.tasdart");
  const auto clean = saved_bytes(tmp);
  const TermPayload p = first_term_payload(clean);
  ASSERT_EQ(p.rows, 48u);
  ASSERT_EQ(p.cols, 256u);
  ASSERT_EQ(peek_u64(clean, p.row_ptr), 0u);
  ASSERT_EQ(peek_u64(clean, p.row_ptr + p.rows * 8), p.value_count);
  const std::uint64_t row0_end = peek_u64(clean, p.row_ptr + 8);
  const std::uint64_t row1_end = peek_u64(clean, p.row_ptr + 16);
  ASSERT_GE(row0_end, 3u);
  ASSERT_LT(row0_end, row1_end);
  ASSERT_LT(row1_end, p.value_count);
  const auto col = [&](std::uint64_t s) { return p.col_index + s * 4; };

  const char* const kEdits[] = {
      "column >= cols",
      "two columns out of order in one row",
      "N + 1 values in one M-block",
      "decreasing row_ptr",
      "row_ptr end != value count",
      "value count > m * k",
  };
  for (std::size_t e = 0; e < std::size(kEdits); ++e) {
    auto bytes = clean;
    switch (e) {
      case 0:  // row 0's last column, still ascending, moved past the end
        patch_u32(bytes, col(row0_end - 1), 256);
        break;
      case 1: {
        const std::uint32_t c0 = peek_u32(clean, col(0));
        patch_u32(bytes, col(0), peek_u32(clean, col(1)));
        patch_u32(bytes, col(1), c0);
        break;
      }
      case 2:  // columns 0, 1, 2: three values in block 0 of a 2:4 row
        for (std::uint32_t s = 0; s < 3; ++s) patch_u32(bytes, col(s), s);
        break;
      case 3:
        patch_u64(bytes, p.row_ptr + 8, row1_end + 1);
        break;
      case 4:
        patch_u64(bytes, p.row_ptr + p.rows * 8, p.value_count - 1);
        break;
      default:
        patch_u64(bytes, p.value_count_at, p.rows * p.cols + 1);
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
  const auto engine = compile(small_net(), small_configs(), {});
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
    // A load adopts plans into the process-wide cache, where a resident
    // plan under the same key wins; start empty so a benign load runs
    // the plans read from this file, not the engine's.
    plan_cache().clear();
    try {
      const auto loaded = load_artifact(tmp.path, {});
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

TEST(Artifact, ConfiguredSectionHoldsNoWeight) {
  // A configured section stores its plan's streams — 4 + 4 bytes per
  // value, 8 per row pointer — and a fixed amount of metadata (name,
  // shape, config, stats, value counts, padding). A stored weight alone
  // would be 4 bytes per element of the whole matrix.
  TempPath tmp("tasd_noweight.tasdart");
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);
  const auto info = inspect_artifact(tmp.path);
  ASSERT_EQ(info.layers.size(), engine.layer_count());
  constexpr std::uint64_t kMetadataBound = 256;
  for (std::size_t i = 0; i < engine.layer_count(); ++i) {
    const auto& l = engine.layer(i);
    if (!l.plan) continue;
    std::uint64_t stream_bytes = 0;
    for (const auto& term : l.plan->terms)
      stream_bytes += 8 * term.nnz() + 8 * (term.rows() + 1);
    EXPECT_TRUE(info.layers[i].configured) << "layer " << i;
    EXPECT_LE(info.layers[i].section_size, stream_bytes + kMetadataBound)
        << "layer " << i;
    EXPECT_LT(stream_bytes + kMetadataBound, l.m * l.k * sizeof(float))
        << "layer " << i << " is too dense to tell a weight from a plan";
  }
}

/// Byte-at-a-time CRC-32 over the reflected polynomial, bit by bit.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(ArtifactCrc, MatchesCheckValueAndByteSerialReference) {
  const unsigned char check[] = "123456789";
  EXPECT_EQ(artifact::crc32(check, 9), 0xCBF43926U);
  EXPECT_EQ(artifact::crc32(check, 0), 0U);

  std::vector<unsigned char> bytes(308);
  Rng rng(9117);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(artifact::crc32(p, len), crc32_bitwise(p, len, 0))
          << "offset " << offset << " length " << len;
      // A chained seed: two calls over a split range equal one call.
      const std::size_t cut = len / 3;
      ASSERT_EQ(artifact::crc32(p + cut, len - cut, artifact::crc32(p, cut)),
                crc32_bitwise(p, len, 0))
          << "offset " << offset << " length " << len << " cut " << cut;
      ASSERT_EQ(artifact::crc32(p, len, 0x12345678U),
                crc32_bitwise(p, len, 0x12345678U))
          << "offset " << offset << " length " << len;
    }
}

TEST(Artifact, MeasureRunsOnALoadedArtifact) {
  // A loaded configured layer has no weight; measure() times its dense
  // reference on the plan's approximation.
  TempPath tmp("tasd_measure.tasdart");
  save_artifact(compile(tiny_net(), mixed_configs(), {}), tmp.path);
  CompileOptions opt;
  opt.measure.repeats = 1;
  const auto loaded = load_artifact(tmp.path, opt);
  const auto timings = loaded.measure();
  ASSERT_EQ(timings.size(), loaded.layer_count());
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    EXPECT_EQ(t.m, loaded.layer(i).m);
    EXPECT_EQ(t.k, loaded.layer(i).k);
    EXPECT_GT(t.dense_ms, 0.0) << "layer " << i;
    if (loaded.layer(i).plan) {
      EXPECT_GT(t.tasd_ms, 0.0) << "layer " << i;
      const double kept = static_cast<double>(loaded.layer(i).plan->nnz()) /
                          static_cast<double>(t.m * t.k);
      EXPECT_GT(kept, 0.0) << "layer " << i;
      EXPECT_LE(kept, 1.0) << "layer " << i;
    }
  }
}

}  // namespace
}  // namespace tasd::rt
