// Matrix serialization: CSV (interoperable, human-readable) and a raw
// binary format (fast, exact). Lets users bring their own pruned weights
// into the decomposition tools and export results for plotting.
//
// The io::ByteWriter / io::ByteReader helpers underneath the binary
// matrix format define every multi-byte field as explicit little-endian
// (byte-swapped on big-endian hosts, memcpy on little-endian ones) and
// turn every malformed input — short read, truncated file, size-overflow
// header — into a typed tasd::Error instead of UB or garbage data. The
// artifact store (src/artifact/) reuses the same helpers, so both on-disk
// formats share one byte-order and bounds-checking discipline.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/matrix.hpp"

namespace tasd::io {

static_assert(std::numeric_limits<float>::is_iec559 && sizeof(float) == 4,
              "binary formats store float32 as IEEE-754 bit patterns");
static_assert(std::numeric_limits<double>::is_iec559 && sizeof(double) == 8,
              "binary formats store float64 as IEEE-754 bit patterns");

/// Convert a host integer to/from the on-disk little-endian byte order.
/// No-op on little-endian hosts; a byte swap on big-endian ones — the
/// explicit byte-order guard both binary formats rely on.
template <typename T>
[[nodiscard]] constexpr T to_little_endian(T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out |= ((v >> (8 * i)) & T{0xFF}) << (8 * (sizeof(T) - 1 - i));
    return out;
  }
}
template <typename T>
[[nodiscard]] constexpr T from_little_endian(T v) {
  return to_little_endian(v);  // involution
}

/// Append-only builder of a little-endian byte stream. Variable-length
/// payloads can be padded to a power-of-two boundary with pad_to() so
/// fixed-width fields stay naturally aligned for mmap-style access.
class ByteWriter {
 public:
  void u32(std::uint32_t v) { append_int(v); }
  void u64(std::uint64_t v) { append_int(v); }
  void f32(float v) { append_int(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { append_int(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  /// Bulk float32 array: one memcpy on little-endian hosts.
  void f32_array(std::span<const float> values) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(values.data(), values.size() * sizeof(float));
    } else {
      for (float v : values) f32(v);
    }
  }

  /// Bulk u32 and u64 arrays under the same byte-order rule.
  void u32_array(std::span<const std::uint32_t> values) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(values.data(), values.size() * sizeof(std::uint32_t));
    } else {
      for (std::uint32_t v : values) u32(v);
    }
  }

  void u64_array(std::span<const std::uint64_t> values) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(values.data(), values.size() * sizeof(std::uint64_t));
    } else {
      for (std::uint64_t v : values) u64(v);
    }
  }

  /// Zero-pad to the next multiple of `alignment` (a power of two).
  void pad_to(std::size_t alignment) {
    while (buf_.size() % alignment != 0) buf_.push_back(0);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<unsigned char>& data() const { return buf_; }

 private:
  template <typename T>
  void append_int(T v) {
    const T le = to_little_endian(v);
    bytes(&le, sizeof(T));
  }

  std::vector<unsigned char> buf_;
};

/// Bounds-checked cursor over a little-endian byte span. Every over-read
/// throws tasd::Error(kInternal) naming `context` — a truncated or
/// corrupt input can never be silently read past its end.
class ByteReader {
 public:
  ByteReader(std::span<const unsigned char> data, std::string context)
      : data_(data), context_(std::move(context)) {}

  [[nodiscard]] std::uint32_t u32() { return read_int<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_int<std::uint64_t>(); }
  [[nodiscard]] float f32() {
    return std::bit_cast<float>(read_int<std::uint32_t>());
  }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(read_int<std::uint64_t>());
  }

  void bytes(void* out, std::size_t size) {
    std::memcpy(out, take(size).data(), size);
  }

  /// The next `size` bytes as a view into the input, without a copy.
  [[nodiscard]] std::span<const unsigned char> take(std::size_t size) {
    require(size);
    const auto out = data_.subspan(pos_, size);
    pos_ += size;
    return out;
  }

  void f32_array(std::span<float> out) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(out.data(), out.size() * sizeof(float));
    } else {
      for (float& v : out) v = f32();
    }
  }

  void u32_array(std::span<std::uint32_t> out) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(out.data(), out.size() * sizeof(std::uint32_t));
    } else {
      for (std::uint32_t& v : out) v = u32();
    }
  }

  void u64_array(std::span<std::uint64_t> out) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(out.data(), out.size() * sizeof(std::uint64_t));
    } else {
      for (std::uint64_t& v : out) v = u64();
    }
  }

  /// Skip the zero padding pad_to() wrote.
  void skip_pad(std::size_t alignment) {
    while (pos_ % alignment != 0) (void)read_int<std::uint8_t>();
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  [[nodiscard]] T read_int() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if constexpr (sizeof(T) > 1) v = from_little_endian(v);
    return v;
  }

  void require(std::size_t size) const {
    if (remaining() < size)
      throw Error(Error::Code::kInternal,
                  context_ + ": truncated (need " + std::to_string(size) +
                      " bytes at offset " + std::to_string(pos_) + ", have " +
                      std::to_string(remaining()) + ")");
  }

  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Read a whole file into memory. Throws tasd::Error(kInvalidArgument)
/// when the file cannot be opened and kInternal on a short read.
std::vector<unsigned char> read_file(const std::string& path);

/// Write bytes to a file, replacing any existing contents. Throws
/// tasd::Error(kInvalidArgument) on open failure, kInternal on a short
/// write.
void write_file(const std::string& path, std::span<const unsigned char> bytes);

}  // namespace tasd::io

namespace tasd {

/// Write `m` as CSV (one row per line, '%.9g' precision — lossless for
/// float32). Throws tasd::Error on I/O failure.
void save_matrix_csv(const MatrixF& m, const std::string& path);

/// Read a CSV matrix; every row must have the same column count.
MatrixF load_matrix_csv(const std::string& path);

/// Binary format: magic "TASDMAT1", u64 rows, u64 cols, float32 data
/// (little-endian, row-major). Exact round trip. load throws
/// kFailedPrecondition on a wrong magic and kInternal on truncation,
/// trailing bytes, or a size-overflow header.
void save_matrix_binary(const MatrixF& m, const std::string& path);
MatrixF load_matrix_binary(const std::string& path);

}  // namespace tasd
