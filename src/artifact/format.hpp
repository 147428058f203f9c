// TASDART on-disk format constants + CRC (docs/artifact.md). The magic
// reads "TASDART1"; the header's version field (kVersion, now 2) is the
// compatibility gate.
//
// Layout (all integers little-endian; offsets from file start):
//
//   header   64 bytes, fixed — see the kHeader*Offset constants
//   name     network name bytes (header names the length), zero-padded
//            to the next 64-byte boundary
//   TOC      layer_count fixed 48-byte entries (kTocEntryBytes), one per
//            layer, CRC'd as a whole (header stores the CRC)
//   sections one per layer, each 64-byte aligned, individually CRC'd
//            (the TOC stores offset/size/CRC and a 128-bit content
//            fingerprint: of the weight for a dense layer, the plan's
//            PlanCache key for a configured one)
//
// Header bytes [44, 64) are reserved: the writer zeroes them and the
// reader ignores them, together with any bytes after the last section.
//
// The fixed-width, aligned layout is deliberately mmap-friendly: every
// integer field sits at a natural alignment, sections start on cache-
// line boundaries, and the TOC locates every payload without parsing
// the sections.
//
// A dense section stores the weight. A configured section stores no
// weight, only the plan: the config, its quality stats, and each series
// term exactly as sparse/nm_matrix.hpp holds it — values f32[nnz],
// col_index u32[nnz] (padded to 8 bytes), row_ptr u64[rows + 1]. On
// disk and in memory a term is the same stream, and
// NMSparseMatrix::from_parts is the one check of its structure.
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
/// The one version this reader speaks; files of any other, version 1
/// included, fail with kFailedPrecondition.
inline constexpr std::uint32_t kVersion = 2;

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
// [44, 64): reserved, written as zero, ignored on read.

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
