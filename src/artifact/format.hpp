// TASDART1 on-disk format constants + CRC (docs/artifact.md).
//
// Layout (all integers little-endian; offsets from file start):
//
//   header   64 bytes, fixed — see the kHeader*Offset constants
//   name     network name bytes (header names the length), zero-padded
//            to the next 64-byte boundary
//   TOC      layer_count fixed 48-byte entries (kTocEntryBytes), one per
//            layer, CRC'd as a whole (header stores the CRC)
//   sections one per layer, each 64-byte aligned, individually CRC'd
//            (the TOC stores offset/size/CRC and the weight's 128-bit
//            content fingerprint)
//   tuning   optional trailing section, 64-byte aligned, CRC'd (the
//            header stores its crc/offset/size in the former reserved
//            bytes): the serialized per-layer TuningResult plus the
//            host CPU signature it was measured under
//
// The fixed-width, aligned layout is deliberately mmap-friendly: every
// integer field sits at a natural alignment, sections start on cache-
// line boundaries, and the TOC locates every payload without parsing
// the sections.
//
// A configured section stores each series term in the block encoding:
// values f32[nnz], in-block index u8[nnz], then one u64 end offset per
// (row, M-block) plus a leading 0. In memory a term is a per-row stream
// (values, u32 columns, row pointers; sparse/nm_matrix.hpp), so the
// writer derives the block arrays from the columns and the reader
// decodes them into columns as it reads, checking that the offsets are
// monotone and every in-block index is < M (docs/artifact.md § On disk
// vs in memory). No other code knows the block encoding.
//
// These constants are public so tooling and the corruption-matrix tests
// (tests/artifact/) can locate and patch specific fields; the reader/
// writer in artifact.cpp is the only code that should interpret whole
// files.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tasd::artifact {

inline constexpr char kMagic[8] = {'T', 'A', 'S', 'D', 'A', 'R', 'T', '1'};
inline constexpr std::uint32_t kVersion = 1;

/// Fixed header size; the name bytes follow it.
inline constexpr std::size_t kHeaderBytes = 64;
/// Alignment of the TOC and of every layer section.
inline constexpr std::size_t kSectionAlign = 64;
/// Fixed TOC entry size.
inline constexpr std::size_t kTocEntryBytes = 48;

// Header field offsets (sizes in the comments).
inline constexpr std::size_t kHeaderMagicOffset = 0;       // char[8]
inline constexpr std::size_t kHeaderVersionOffset = 8;     // u32
inline constexpr std::size_t kHeaderHeaderBytesOffset = 12;  // u32 (= 64)
inline constexpr std::size_t kHeaderLayerCountOffset = 16;   // u32
inline constexpr std::size_t kHeaderNameLenOffset = 20;      // u32
inline constexpr std::size_t kHeaderFileSizeOffset = 24;     // u64
inline constexpr std::size_t kHeaderTocOffsetOffset = 32;    // u64
inline constexpr std::size_t kHeaderTocCrcOffset = 40;       // u32
// Optional tuning section (per-layer autotuning results; docs/artifact.md
// § Tuning section). offset == 0 and size == 0 — what v1 writers put in
// these then-reserved bytes — means "absent", so pre-tuning files load
// unchanged and pre-tuning readers ignore the trailing section.
inline constexpr std::size_t kHeaderTuningCrcOffset = 44;     // u32
inline constexpr std::size_t kHeaderTuningOffsetOffset = 48;  // u64
inline constexpr std::size_t kHeaderTuningSizeOffset = 56;    // u64

// TOC entry field offsets, relative to the entry start.
inline constexpr std::size_t kTocFpLoOffset = 0;           // u64
inline constexpr std::size_t kTocFpHiOffset = 8;           // u64
inline constexpr std::size_t kTocSectionOffsetOffset = 16;  // u64
inline constexpr std::size_t kTocSectionSizeOffset = 24;    // u64
inline constexpr std::size_t kTocSectionCrcOffset = 32;     // u32
inline constexpr std::size_t kTocFlagsOffset = 36;          // u32
// [40, 48): reserved, written as zero.

/// TOC entry flag: the layer carries a TASD config + serialized plan.
inline constexpr std::uint32_t kFlagConfigured = 1U << 0;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size`
/// bytes, continuing from `seed` (pass a previous return value to
/// checksum discontiguous ranges).
std::uint32_t crc32(const unsigned char* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace tasd::artifact
