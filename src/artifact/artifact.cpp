#include "artifact/artifact.hpp"

#include <cstring>
#include <fstream>
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

/// Serialize one bound layer into `w` (a fresh per-section buffer).
/// Variable-length payloads are padded to 8 bytes so every fixed-width
/// field keeps its natural alignment (mmap-friendliness contract).
void write_section(const CompiledNetwork::BoundLayer& l, io::ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(l.name.size()));
  w.bytes(l.name.data(), l.name.size());
  w.pad_to(8);
  w.u64(l.m);
  w.u64(l.k);
  w.u64(l.n);
  w.u32(l.plan ? 1 : 0);
  w.u32(0);  // reserved; keeps the weight array 8-aligned
  w.f32_array(l.weight.flat());
  if (!l.plan) return;

  const DecompositionPlan& plan = *l.plan;
  w.pad_to(8);
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
    w.u32(static_cast<std::uint32_t>(term.pattern().n));
    w.u32(static_cast<std::uint32_t>(term.pattern().m));
    w.u64(term.rows());
    w.u64(term.cols());
    w.u64(term.values().size());
    w.f32_array(term.values());
    // On disk a term keeps the block encoding: an in-block index per
    // value, then one end offset per (row, M-block). Both derive from
    // the stream's columns, which ascend within a row.
    const auto m = static_cast<Index>(term.pattern().m);
    const auto& col = term.col_index();
    const auto& row_ptr = term.row_ptr();
    std::vector<std::uint8_t> in_block_index(col.size());
    for (std::size_t s = 0; s < col.size(); ++s)
      in_block_index[s] = static_cast<std::uint8_t>(col[s] % m);
    w.bytes(in_block_index.data(), in_block_index.size());
    w.pad_to(8);
    const Index blocks_per_row = term.blocks_per_row();
    w.u64(term.rows() * blocks_per_row + 1);
    w.u64(0);
    for (Index r = 0; r < term.rows(); ++r) {
      Index s = row_ptr[r];
      for (Index b = 1; b <= blocks_per_row; ++b) {
        while (s < row_ptr[r + 1] && col[s] < b * m) ++s;
        w.u64(s);
      }
    }
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

/// Deserialize one layer section (already CRC-verified) into a
/// PreboundLayer. Throws kInternal on any structural inconsistency.
detail::PreboundLayer read_section(std::span<const unsigned char> bytes,
                                   bool configured, const std::string& path,
                                   std::size_t layer_index) {
  const std::string context = "artifact '" + path + "' layer " +
                              std::to_string(layer_index) + " section";
  io::ByteReader r(bytes, context);
  detail::PreboundLayer l;
  const std::uint32_t name_len = r.u32();
  if (name_len > r.remaining())
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " name extends past its section");
  l.name.resize(name_len);
  r.bytes(l.name.data(), name_len);
  r.skip_pad(8);
  const std::uint64_t m = r.u64();
  const std::uint64_t k = r.u64();
  const std::uint64_t positions = r.u64();
  const std::uint32_t flag = r.u32();
  (void)r.u32();  // reserved
  if ((flag != 0) != configured)
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " section flag disagrees with the TOC");
  if (m >= (1ULL << 32) || k >= (1ULL << 32) || m * k >= (1ULL << 32))
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " has a size-overflow shape header");
  if (m * k * sizeof(float) > r.remaining())
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " weight extends past its section");
  l.positions = static_cast<Index>(positions);
  l.weight = MatrixF(static_cast<Index>(m), static_cast<Index>(k));
  r.f32_array(l.weight.flat());
  if (!configured) {
    if (r.remaining() != 0)
      fail_corrupt(path, "layer " + std::to_string(layer_index) +
                             " section has trailing bytes");
    return l;
  }

  r.skip_pad(8);
  auto plan = std::make_shared<DecompositionPlan>();
  plan->rows = static_cast<Index>(m);
  plan->cols = static_cast<Index>(k);
  const std::uint64_t term_count = r.u64();
  if (term_count > 64)
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " claims an implausible series order");
  std::vector<sparse::NMPattern> patterns;
  patterns.reserve(term_count);
  for (std::uint64_t t = 0; t < term_count; ++t) {
    const std::uint32_t pn = r.u32();
    const std::uint32_t pm = r.u32();
    if (pm == 0 || pn > pm || pm > 256)
      fail_corrupt(path, "layer " + std::to_string(layer_index) +
                             " has an invalid N:M pattern");
    patterns.emplace_back(static_cast<int>(pn), static_cast<int>(pm));
  }
  plan->config = TasdConfig(patterns);
  ApproxStats& s = plan->stats;
  s.original_nnz = static_cast<Index>(r.u64());
  s.kept_nnz = static_cast<Index>(r.u64());
  s.dropped_nnz = static_cast<Index>(r.u64());
  s.original_magnitude = r.f64();
  s.kept_magnitude = r.f64();
  s.dropped_magnitude = r.f64();
  s.mse = r.f64();
  s.rel_frobenius_error = r.f64();

  plan->terms.reserve(term_count);
  for (std::uint64_t t = 0; t < term_count; ++t) {
    const std::uint32_t pn = r.u32();
    const std::uint32_t pm = r.u32();
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    if (patterns[t].n != static_cast<int>(pn) ||
        patterns[t].m != static_cast<int>(pm) || rows != m || cols != k)
      fail_corrupt(path, "layer " + std::to_string(layer_index) + " term " +
                             std::to_string(t) +
                             " disagrees with its plan header");
    const std::uint64_t value_count = r.u64();
    if (value_count > m * k ||
        value_count * (sizeof(float) + 1) > r.remaining())
      fail_corrupt(path, "layer " + std::to_string(layer_index) + " term " +
                             std::to_string(t) + " claims " +
                             std::to_string(value_count) + " values in a " +
                             std::to_string(m) + "x" + std::to_string(k) +
                             " matrix");
    std::vector<float> values(value_count);
    r.f32_array(values);
    const auto in_block_index = r.take(value_count);
    r.skip_pad(8);
    const std::uint64_t offsets_count = r.u64();
    const std::uint64_t blocks_per_row =
        (cols + pm - 1) / pm;  // pm > 0 checked above
    const auto term_fail = [&](const std::string& what) {
      fail_corrupt(path, "layer " + std::to_string(layer_index) + " term " +
                             std::to_string(t) + " " + what);
    };
    if (offsets_count != rows * blocks_per_row + 1)
      term_fail("has a wrong block-offset count");
    if (offsets_count > r.remaining() / sizeof(std::uint64_t))
      term_fail("block offsets extend past its section");
    const auto raw = r.take(offsets_count * sizeof(std::uint64_t));
    const auto offset = [&raw](std::uint64_t i) {
      std::uint64_t v;
      std::memcpy(&v, raw.data() + i * sizeof v, sizeof v);
      return io::from_little_endian(v);
    };
    if (offset(0) != 0 || offset(offsets_count - 1) != value_count)
      term_fail("has block offsets that do not span its values");

    // Decode the block encoding straight into the stream, reading the
    // offsets in place: they are never materialized. One pass per row
    // walks its values, advancing to the block each one ends in, and
    // checks every offset it passes for monotonicity. Monotone offsets
    // and in-block indices < M are this encoding's invariants;
    // from_parts then checks the stream's.
    std::vector<std::uint32_t> col_index(value_count);
    std::vector<Index> row_ptr(rows + 1, 0);
    bool monotone = true;
    for (std::uint64_t row = 0; row < rows; ++row) {
      const std::uint64_t first = row * blocks_per_row;
      const std::uint64_t last = first + blocks_per_row;
      const std::uint64_t row_end = offset(last);
      if (offset(first) > row_end || row_end > value_count)
        term_fail("has non-monotone block offsets");
      std::uint64_t g = first;
      for (std::uint64_t s = offset(first); s < row_end; ++s) {
        for (; offset(g + 1) <= s; ++g) monotone &= offset(g) <= offset(g + 1);
        const std::uint64_t c = (g - first) * pm + in_block_index[s];
        if (in_block_index[s] >= pm || c >= cols)
          term_fail("has an in-block index out of range");
        col_index[s] = static_cast<std::uint32_t>(c);
      }
      for (; g < last; ++g) monotone &= offset(g) <= offset(g + 1);
      if (!monotone) term_fail("has non-monotone block offsets");
      row_ptr[row + 1] = static_cast<Index>(row_end);
    }
    try {
      plan->terms.push_back(sparse::NMSparseMatrix::from_parts(
          patterns[t], static_cast<Index>(rows), static_cast<Index>(cols),
          std::move(values), std::move(col_index), std::move(row_ptr)));
    } catch (const Error& e) {
      // from_parts checks the stream invariants with kInvalidArgument;
      // on this path an inconsistency means the bytes lie — data loss.
      term_fail(std::string("is structurally inconsistent: ") + e.what());
    }
  }
  if (r.remaining() != 0)
    fail_corrupt(path, "layer " + std::to_string(layer_index) +
                           " section has trailing bytes");
  l.config = plan->config;
  l.plan = std::shared_ptr<const DecompositionPlan>(std::move(plan));
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
    const auto fp = content_fingerprint(l.weight);
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

  std::vector<detail::PreboundLayer> layers;
  layers.reserve(toc.entries.size());
  for (std::size_t i = 0; i < toc.entries.size(); ++i) {
    const TocEntry& e = toc.entries[i];
    const auto section = std::span<const unsigned char>(bytes).subspan(
        e.section_offset, e.section_size);
    if (crc32(section.data(), section.size()) != e.section_crc)
      fail_corrupt(path,
                   "layer " + std::to_string(i) + " section CRC mismatch");
    detail::PreboundLayer l = read_section(
        section, (e.flags & artifact::kFlagConfigured) != 0, path, i);
    // The fingerprint binds the deserialized plan to the weight bytes it
    // was decomposed from — the same key the PlanCache uses, so a
    // mismatch means the section pairs a weight with someone else's
    // plan (or a corruption both CRCs missed).
    if (content_fingerprint(l.weight) != e.fingerprint)
      fail_corrupt(path, "layer " + std::to_string(i) + " ('" + l.name +
                             "') weight does not match its recorded "
                             "content fingerprint");
    if (l.plan && opt.measure.use_plan_cache)
      l.plan = plan_cache().insert_preloaded(l.weight, l.plan);
    layers.push_back(std::move(l));
  }
  return detail::assemble_network(toc.name, std::move(layers), opt);
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
