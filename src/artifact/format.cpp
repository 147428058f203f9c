#include "artifact/format.hpp"

#include <array>

namespace tasd::artifact {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kCrc[0] is the byte-serial table of the
/// reflected polynomial 0xEDB88320; kCrc[t][b] is the CRC update of byte
/// b followed by t zero bytes, so one step folds 8 input bytes with 8
/// independent lookups instead of a chain of 8.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFU] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t size,
                    std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c, hi = load_le32(data + 4);
    c = kCrc[7][lo & 0xFFU] ^ kCrc[6][(lo >> 8) & 0xFFU] ^
        kCrc[5][(lo >> 16) & 0xFFU] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFU] ^ kCrc[2][(hi >> 8) & 0xFFU] ^
        kCrc[1][(hi >> 16) & 0xFFU] ^ kCrc[0][hi >> 24];
  }
  for (; size > 0; ++data, --size)
    c = kCrc[0][(c ^ *data) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

}  // namespace tasd::artifact
