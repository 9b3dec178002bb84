// Wire encoding primitives.
//
// Experiment E3 (timestamp overhead vs N) measures *bytes on the wire*,
// so messages are serialized through a realistic codec instead of
// counting abstract "vector elements".  We use LEB128 unsigned varints
// (the standard protobuf/WebAssembly encoding) plus zigzag for signed
// values and length-prefixed byte strings.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ccvc::util {

/// Growable byte buffer used as a serialization target.
class ByteSink {
 public:
  ByteSink() = default;
  /// Starts with room for `capacity` bytes, so an encoder that knows its
  /// output size writes without regrowing.
  explicit ByteSink(std::size_t capacity) { bytes_.reserve(capacity); }

  void put_u8(std::uint8_t b) { bytes_.push_back(b); }

  /// Unsigned LEB128 varint.
  void put_uvarint(std::uint64_t v);

  /// Signed varint via zigzag mapping.
  void put_svarint(std::int64_t v);

  /// Length-prefixed byte string.
  void put_string(std::string_view s);

  /// Raw bytes, no length prefix.
  void put_raw(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  /// Hands the encoded bytes over without copying; the sink is spent.
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Thrown when a ByteSource runs out of data or sees malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Read-only cursor over an encoded byte buffer.
class ByteSource {
 public:
  explicit ByteSource(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint64_t get_uvarint();

  /// Varint constrained to 32 bits — for wire fields that decode into
  /// 32-bit identifiers (SiteId).  A value above UINT32_MAX is malformed
  /// input and throws DecodeError; a silent `static_cast` here would
  /// alias distinct site ids and corrupt causality verdicts.
  std::uint32_t get_uvarint32();

  std::int64_t get_svarint();
  std::string get_string();

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Number of bytes put_uvarint would emit for v (for overhead analysis
/// without materializing a buffer).
std::size_t uvarint_size(std::uint64_t v);

/// Writes the bytes put_uvarint would emit for v to `out`, which has
/// room for uvarint_size(v) of them — for a header filled in after what
/// follows it.  Returns past the last byte written.
std::uint8_t* encode_uvarint(std::uint64_t v, std::uint8_t* out);

}  // namespace ccvc::util
