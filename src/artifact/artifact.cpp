#include "artifact/artifact.hpp"

#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>

#include "artifact/format.hpp"
#include "common/error.hpp"
#include "tensor/io.hpp"

namespace tasd::rt {

namespace {

using artifact::crc32;

std::size_t align_up(std::size_t v, std::size_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

[[noreturn]] void fail_corrupt(const std::string& path,
                               const std::string& what) {
  throw Error(Error::Code::kInternal,
              "artifact '" + path + "': " + what);
}

// ------------------------------------------------------------- writing

static_assert(std::is_same_v<Index, std::uint64_t>,
              "row pointers are stored as u64 and read in bulk");

/// Serialize one bound layer into `w` (a fresh per-section buffer). A
/// dense layer stores its weight; a configured one stores its plan, each
/// term exactly as NMSparseMatrix holds it. Variable-length payloads are
/// padded to 8 bytes so every fixed-width field keeps its natural
/// alignment (mmap-friendliness contract).
void write_section(const CompiledNetwork::BoundLayer& l, io::ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(l.name.size()));
  w.bytes(l.name.data(), l.name.size());
  w.pad_to(8);
  w.u64(l.m);
  w.u64(l.k);
  w.u64(l.n);
  if (!l.plan) {
    w.f32_array(l.weight.flat());
    return;
  }

  const DecompositionPlan& plan = *l.plan;
  w.u64(plan.config.terms.size());
  for (const auto& pattern : plan.config.terms) {
    w.u32(static_cast<std::uint32_t>(pattern.n));
    w.u32(static_cast<std::uint32_t>(pattern.m));
  }
  const ApproxStats& s = plan.stats;
  w.u64(s.original_nnz);
  w.u64(s.kept_nnz);
  w.u64(s.dropped_nnz);
  w.f64(s.original_magnitude);
  w.f64(s.kept_magnitude);
  w.f64(s.dropped_magnitude);
  w.f64(s.mse);
  w.f64(s.rel_frobenius_error);
  for (const auto& term : plan.terms) {
    w.u64(term.nnz());
    w.f32_array(term.values());
    w.u32_array(term.col_index());
    w.pad_to(8);
    w.u64_array(term.row_ptr());
  }
}

// ------------------------------------------------------------- reading

struct TocEntry {
  ContentFingerprint fingerprint;
  std::uint64_t section_offset = 0;
  std::uint64_t section_size = 0;
  std::uint32_t section_crc = 0;
  std::uint32_t flags = 0;
};

struct ParsedToc {
  std::string name;
  std::vector<TocEntry> entries;
};

/// Validate magic/version/header/TOC per the failure contract in
/// artifact.hpp. Section payloads are not touched.
ParsedToc parse_header_and_toc(std::span<const unsigned char> bytes,
                               const std::string& path) {
  if (bytes.size() < sizeof artifact::kMagic)
    fail_corrupt(path, "truncated before the magic");
  if (std::memcmp(bytes.data(), artifact::kMagic,
                  sizeof artifact::kMagic) != 0)
    throw Error(Error::Code::kFailedPrecondition,
                "'" + path + "' is not a TASD artifact (bad magic)");
  if (bytes.size() < artifact::kHeaderBytes)
    fail_corrupt(path, "truncated header");

  io::ByteReader header(bytes.subspan(0, artifact::kHeaderBytes),
                        "artifact '" + path + "' header");
  char magic[sizeof artifact::kMagic];
  header.bytes(magic, sizeof magic);
  const std::uint32_t version = header.u32();
  if (version != artifact::kVersion)
    throw Error(Error::Code::kFailedPrecondition,
                "artifact '" + path + "' is format version " +
                    std::to_string(version) + "; this reader speaks version " +
                    std::to_string(artifact::kVersion));
  const std::uint32_t header_bytes = header.u32();
  if (header_bytes != artifact::kHeaderBytes)
    fail_corrupt(path, "implausible header size field");
  const std::uint32_t layer_count = header.u32();
  const std::uint32_t name_len = header.u32();
  const std::uint64_t file_size = header.u64();
  const std::uint64_t toc_offset = header.u64();
  const std::uint32_t toc_crc = header.u32();
  // Bytes [44, 64) are reserved: ignored here, as is anything after the
  // last section.

  if (file_size != bytes.size())
    fail_corrupt(path, "file is " + std::to_string(bytes.size()) +
                           " bytes, header claims " +
                           std::to_string(file_size) + " (truncated?)");
  if (artifact::kHeaderBytes + std::uint64_t{name_len} > bytes.size())
    fail_corrupt(path, "network name extends past the file");
  ParsedToc toc;
  toc.name.assign(
      reinterpret_cast<const char*>(bytes.data()) + artifact::kHeaderBytes,
      name_len);

  const std::uint64_t toc_bytes =
      std::uint64_t{layer_count} * artifact::kTocEntryBytes;
  // The header is not CRC'd, so compare without forming toc_offset +
  // toc_bytes: a huge toc_offset would wrap that sum back into range.
  if (toc_offset < artifact::kHeaderBytes + name_len ||
      toc_offset > bytes.size() || toc_bytes > bytes.size() - toc_offset)
    fail_corrupt(path, "truncated table of contents");
  if (crc32(bytes.data() + toc_offset, toc_bytes) != toc_crc)
    fail_corrupt(path, "table-of-contents CRC mismatch");

  io::ByteReader r(bytes.subspan(toc_offset, toc_bytes),
                   "artifact '" + path + "' TOC");
  toc.entries.reserve(layer_count);
  const std::uint64_t sections_begin = toc_offset + toc_bytes;
  for (std::uint32_t i = 0; i < layer_count; ++i) {
    TocEntry e;
    e.fingerprint.lo = r.u64();
    e.fingerprint.hi = r.u64();
    e.section_offset = r.u64();
    e.section_size = r.u64();
    e.section_crc = r.u32();
    e.flags = r.u32();
    (void)r.u64();  // reserved
    if (e.section_offset < sections_begin ||
        e.section_offset + e.section_size > bytes.size() ||
        e.section_offset + e.section_size < e.section_offset)
      fail_corrupt(path, "layer " + std::to_string(i) +
                             " section extends past the file");
    toc.entries.push_back(e);
  }
  return toc;
}

/// Deserialize one layer section (already CRC-verified). The reader
/// checks only bounds and counts; NMSparseMatrix::from_parts (and the
/// NMPattern constructor) check the structure of every term, and their
/// kInvalidArgument becomes kInternal here: on this path an
/// inconsistency means the bytes lie — data loss.
dnn::LayerBinding read_section(std::span<const unsigned char> bytes,
                               bool configured, const std::string& path,
                               std::size_t layer_index) {
  const std::string layer = "layer " + std::to_string(layer_index);
  const auto fail = [&](const std::string& what) {
    fail_corrupt(path, layer + " " + what);
  };
  io::ByteReader r(bytes, "artifact '" + path + "' " + layer + " section");
  dnn::LayerBinding l;
  const std::uint32_t name_len = r.u32();
  if (name_len > r.remaining()) fail("name extends past its section");
  l.name.resize(name_len);
  r.bytes(l.name.data(), name_len);
  r.skip_pad(8);
  const std::uint64_t m = r.u64();
  const std::uint64_t k = r.u64();
  l.positions = static_cast<Index>(r.u64());
  if (m >= (1ULL << 32) || k >= (1ULL << 32) || m * k >= (1ULL << 32))
    fail("has a size-overflow shape header");

  if (!configured) {
    if (m * k * sizeof(float) > r.remaining())
      fail("weight extends past its section");
    l.weight = MatrixF(static_cast<Index>(m), static_cast<Index>(k));
    r.f32_array(l.weight.flat());
  } else {
    auto plan = std::make_shared<DecompositionPlan>();
    plan->rows = static_cast<Index>(m);
    plan->cols = static_cast<Index>(k);
    const std::uint64_t term_count = r.u64();
    if (term_count > r.remaining() / sizeof(std::uint64_t))
      fail("series extends past its section");
    try {
      std::vector<sparse::NMPattern> patterns;
      for (std::uint64_t t = 0; t < term_count; ++t) {
        const auto n = static_cast<int>(r.u32());
        patterns.emplace_back(n, static_cast<int>(r.u32()));
      }
      plan->config = TasdConfig(std::move(patterns));
      ApproxStats& s = plan->stats;
      s.original_nnz = static_cast<Index>(r.u64());
      s.kept_nnz = static_cast<Index>(r.u64());
      s.dropped_nnz = static_cast<Index>(r.u64());
      s.original_magnitude = r.f64();
      s.kept_magnitude = r.f64();
      s.dropped_magnitude = r.f64();
      s.mse = r.f64();
      s.rel_frobenius_error = r.f64();

      for (std::size_t t = 0; t < plan->config.terms.size(); ++t) {
        const std::uint64_t value_count = r.u64();
        if (value_count > m * k ||
            value_count * (sizeof(float) + sizeof(std::uint32_t)) >
                r.remaining())
          fail("term " + std::to_string(t) + " claims " +
               std::to_string(value_count) + " values in a " +
               std::to_string(m) + "x" + std::to_string(k) + " matrix");
        std::vector<float> values(value_count);
        r.f32_array(values);
        std::vector<std::uint32_t> col_index(value_count);
        r.u32_array(col_index);
        r.skip_pad(8);
        if (m + 1 > r.remaining() / sizeof(std::uint64_t))
          fail("term " + std::to_string(t) +
               " row pointers extend past its section");
        std::vector<Index> row_ptr(m + 1);
        r.u64_array(row_ptr);
        plan->terms.push_back(sparse::NMSparseMatrix::from_parts(
            plan->config.terms[t], plan->rows, plan->cols, std::move(values),
            std::move(col_index), std::move(row_ptr)));
      }
    } catch (const Error& e) {
      if (e.code() != Error::Code::kInvalidArgument) throw;
      fail(std::string("has a structurally inconsistent plan: ") + e.what());
    }
    l.config = plan->config;
    l.plan = std::move(plan);
  }
  if (r.remaining() != 0) fail("section has trailing bytes");
  return l;
}

}  // namespace

void save_artifact(const CompiledNetwork& net, const std::string& path) {
  // Serialize every section first: the TOC (written before the sections)
  // needs their sizes, CRCs and fingerprints.
  std::vector<io::ByteWriter> sections(net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    write_section(net.layer(i), sections[i]);

  const std::string& name = net.name();
  const std::size_t toc_offset =
      align_up(artifact::kHeaderBytes + name.size(), artifact::kSectionAlign);
  const std::size_t toc_bytes = net.layer_count() * artifact::kTocEntryBytes;

  io::ByteWriter toc;
  std::size_t cursor =
      align_up(toc_offset + toc_bytes, artifact::kSectionAlign);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const CompiledNetwork::BoundLayer& l = net.layer(i);
    // A configured layer's entry is its plan's cache key; a dense
    // layer's hashes the weight the section stores.
    const auto fp = l.plan ? l.fingerprint : content_fingerprint(l.weight);
    const auto& body = sections[i].data();
    toc.u64(fp.lo);
    toc.u64(fp.hi);
    toc.u64(cursor);
    toc.u64(body.size());
    toc.u32(crc32(body.data(), body.size()));
    toc.u32(l.plan ? artifact::kFlagConfigured : 0);
    toc.u64(0);  // reserved
    cursor = align_up(cursor + body.size(), artifact::kSectionAlign);
  }
  // file_size counts up to the end of the last section's bytes, without
  // the trailing alignment pad no reader would consume.
  std::size_t file_size = align_up(toc_offset + toc_bytes,
                                   artifact::kSectionAlign);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i + 1 == sections.size())
      file_size += sections[i].data().size();
    else
      file_size = align_up(file_size + sections[i].data().size(),
                           artifact::kSectionAlign);
  }
  if (sections.empty()) file_size = toc_offset + toc_bytes;

  io::ByteWriter head;
  head.bytes(artifact::kMagic, sizeof artifact::kMagic);
  head.u32(artifact::kVersion);
  head.u32(static_cast<std::uint32_t>(artifact::kHeaderBytes));
  head.u32(static_cast<std::uint32_t>(net.layer_count()));
  head.u32(static_cast<std::uint32_t>(name.size()));
  head.u64(file_size);
  head.u64(toc_offset);
  head.u32(crc32(toc.data().data(), toc.data().size()));
  head.pad_to(artifact::kHeaderBytes);  // reserved bytes, zeroed
  head.bytes(name.data(), name.size());
  head.pad_to(artifact::kSectionAlign);  // through the name region
  head.bytes(toc.data().data(), toc.data().size());

  // Stream to disk: header+TOC, then each section at its aligned
  // offset. Sections can be hundreds of MB; never concatenate them.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good())
    throw Error(Error::Code::kInvalidArgument,
                "cannot open '" + path + "' for writing");
  std::size_t written = 0;
  const auto emit = [&](const unsigned char* data, std::size_t size) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    written += size;
  };
  static constexpr unsigned char kZeros[artifact::kSectionAlign] = {};
  const auto pad_to = [&](std::size_t target) {
    while (written < target)
      emit(kZeros, std::min(target - written, sizeof kZeros));
  };
  emit(head.data().data(), head.data().size());
  for (const auto& section : sections) {
    pad_to(align_up(written, artifact::kSectionAlign));
    emit(section.data().data(), section.data().size());
  }
  out.flush();
  if (!out.good())
    throw Error(Error::Code::kInternal,
                "short write to '" + path + "' (artifact is " +
                    std::to_string(file_size) + " bytes)");
}

CompiledNetwork load_artifact(const std::string& path,
                              const CompileOptions& opt) {
  const auto bytes = io::read_file(path);
  const ParsedToc toc = parse_header_and_toc(bytes, path);

  std::vector<dnn::LayerBinding> layers;
  layers.reserve(toc.entries.size());
  for (std::size_t i = 0; i < toc.entries.size(); ++i) {
    const TocEntry& e = toc.entries[i];
    const auto section = std::span<const unsigned char>(bytes).subspan(
        e.section_offset, e.section_size);
    if (crc32(section.data(), section.size()) != e.section_crc)
      fail_corrupt(path,
                   "layer " + std::to_string(i) + " section CRC mismatch");
    dnn::LayerBinding l = read_section(
        section, (e.flags & artifact::kFlagConfigured) != 0, path, i);
    if (l.plan) {
      // The recorded fingerprint is the plan's PlanCache key: adopting
      // it under that key lets later compiles of the same weight hit.
      l.fingerprint = e.fingerprint;
      l.plan = plan_cache().insert_preloaded(e.fingerprint, l.plan);
    } else if (content_fingerprint(l.weight) != e.fingerprint) {
      // A dense weight must hash back to its entry (a corruption both
      // CRCs missed, or a section paired with another layer's entry).
      fail_corrupt(path, "layer " + std::to_string(i) + " ('" + l.name +
                             "') weight does not match its recorded "
                             "content fingerprint");
    }
    layers.push_back(std::move(l));
  }
  return compile(toc.name, std::move(layers), opt);
}

ArtifactInfo inspect_artifact(const std::string& path) {
  const auto bytes = io::read_file(path);
  const ParsedToc toc = parse_header_and_toc(bytes, path);
  ArtifactInfo info;
  info.version = artifact::kVersion;
  info.name = toc.name;
  info.file_bytes = bytes.size();
  info.layers.reserve(toc.entries.size());
  for (const TocEntry& e : toc.entries) {
    ArtifactLayerInfo l;
    l.fingerprint = e.fingerprint;
    l.configured = (e.flags & artifact::kFlagConfigured) != 0;
    l.section_offset = e.section_offset;
    l.section_size = e.section_size;
    l.section_crc32 = e.section_crc;
    info.layers.push_back(l);
  }
  return info;
}

}  // namespace tasd::rt
