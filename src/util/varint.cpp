#include "util/varint.hpp"

#include <cstring>

namespace ccvc::util {

namespace {

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

void ByteSink::put_uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteSink::put_svarint(std::int64_t v) { put_uvarint(zigzag_encode(v)); }

void ByteSink::put_string(std::string_view s) {
  put_uvarint(s.size());
  put_raw(s.data(), s.size());
}

void ByteSink::put_raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

std::uint8_t ByteSource::get_u8() {
  if (pos_ >= size_) throw DecodeError("ByteSource: out of data");
  return data_[pos_++];
}

std::uint64_t ByteSource::get_uvarint() {
  std::uint64_t result = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("uvarint too long");
    const std::uint8_t b = get_u8();
    // The 10th byte reaches shift 63: only its low bit fits in 64 bits.
    // Anything above must be rejected, not silently truncated, or two
    // distinct wire encodings would decode to the same counter value.
    if (shift == 63 && (b & 0x7e) != 0)
      throw DecodeError("uvarint overflows 64 bits");
    result |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return result;
}

std::uint32_t ByteSource::get_uvarint32() {
  const std::uint64_t v = get_uvarint();
  if (v > 0xffffffffull) throw DecodeError("uvarint exceeds 32 bits");
  return static_cast<std::uint32_t>(v);
}

std::int64_t ByteSource::get_svarint() { return zigzag_decode(get_uvarint()); }

std::string ByteSource::get_string() {
  const std::uint64_t n = get_uvarint();
  if (n > remaining()) throw DecodeError("string length exceeds buffer");
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::size_t uvarint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint8_t* encode_uvarint(std::uint64_t v, std::uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

}  // namespace ccvc::util
