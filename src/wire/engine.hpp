// Shared schema-driven encode/decode engine.
//
// Writer and Reader wrap the LEB128 primitives of util/varint.hpp, but
// every operation is keyed to a FieldDesc from wire/schema.hpp: the
// byte layout stays exactly the varint format the codecs always used
// (golden-bytes tests pin this), while the declared bound of each field
// is enforced on both directions —
//   * encode: a value over its bound is a caller bug and throws
//     ContractViolation (CCVC_CHECK semantics);
//   * decode: a wire value or length claim over its bound is malformed
//     input and throws util::DecodeError, *before* the remaining-bytes
//     check, so a hostile length claim dies without touching the
//     allocator and reject tests do not need giant buffers.
//
// Codecs keep their structured control flow (StampMode switches, frame
// kinds) and route every leaf field through here; which branch is live
// is recorded declaratively by FieldDesc::conditional.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::wire {

namespace detail {
[[noreturn]] void encode_bound_failed(const FieldDesc& f, std::uint64_t v);
[[noreturn]] void decode_bound_failed(const FieldDesc& f, std::uint64_t v);
[[noreturn]] void decode_length_failed(const FieldDesc& f, std::uint64_t n);
}  // namespace detail

/// Schema-checked serializer over a ByteSink.
class Writer {
 public:
  explicit Writer(util::ByteSink& sink) : sink_(sink) {}

  /// First wire byte of a tagged top-level message.
  void tag(const MessageDesc& d) {
    CCVC_DCHECK(d.tag != kNoTag);
    sink_.put_u8(static_cast<std::uint8_t>(d.tag));
  }

  void u8(const FieldDesc& f, std::uint8_t v) {
    CCVC_DCHECK(f.kind == FieldKind::kU8);
    if (v > f.bound) detail::encode_bound_failed(f, v);
    sink_.put_u8(v);
  }

  /// kUvarint32 / kUvarint64 — the declared bound covers the 32-bit
  /// constraint for kUvarint32 fields.
  void uv(const FieldDesc& f, std::uint64_t v) {
    CCVC_DCHECK(f.kind == FieldKind::kUvarint32 ||
                f.kind == FieldKind::kUvarint64);
    if (v > f.bound) detail::encode_bound_failed(f, v);
    sink_.put_uvarint(v);
  }

  void str(const FieldDesc& f, std::string_view s) {
    CCVC_DCHECK(f.kind == FieldKind::kString);
    if (s.size() > f.bound) detail::encode_bound_failed(f, s.size());
    sink_.put_string(s);
  }

  /// kBytes — uvarint length + raw bytes.
  void blob(const FieldDesc& f, const void* data, std::size_t n) {
    blob_head(f, n);
    sink_.put_raw(data, n);
  }

  /// kBytes — the length prefix alone, for bytes the caller appends
  /// itself (exactly n of them) without staging them in a buffer.
  void blob_head(const FieldDesc& f, std::size_t n) {
    CCVC_DCHECK(f.kind == FieldKind::kBytes);
    if (n > f.bound) detail::encode_bound_failed(f, n);
    sink_.put_uvarint(n);
  }

  /// kRaw — unprefixed tail bytes.
  void raw(const FieldDesc& f, const void* data, std::size_t n) {
    CCVC_DCHECK(f.kind == FieldKind::kRaw);
    if (n > f.bound) detail::encode_bound_failed(f, n);
    sink_.put_raw(data, n);
  }

  /// kRepeated — writes the count prefix (a no-op for external_count
  /// fields, whose count travels in an earlier field) and bound-checks
  /// the element count either way.
  void count(const FieldDesc& f, std::uint64_t n) {
    CCVC_DCHECK(f.kind == FieldKind::kRepeated);
    if (n > f.bound) detail::encode_bound_failed(f, n);
    if (!f.external_count) sink_.put_uvarint(n);
  }

  /// The head of a tagged message whose kRepeated count is known only
  /// after its elements are written: placeholder bytes for the tag and
  /// the largest count `max_n`, bound-checked like count().
  /// finish_counted_head() fills them in.
  void counted_head_room(const FieldDesc& f, std::uint64_t max_n);

  /// kCrc32 — little-endian CRC-32 over every byte written so far.
  void crc(const FieldDesc& f);

  util::ByteSink& sink() { return sink_; }

 private:
  util::ByteSink& sink_;
};

/// Writes the tag of `d` and the count `n` (at most the `max_n` that
/// Writer::counted_head_room reserved at the front of `msg`) into that
/// room, right-aligned against the first element, and drops the
/// placeholder bytes a shorter count leaves over — a shift of the whole
/// message, needed only when n's varint is shorter than max_n's.
void finish_counted_head(std::vector<std::uint8_t>& msg, const MessageDesc& d,
                         std::uint64_t max_n, std::uint64_t n);

/// Schema-checked deserializer over a ByteSource.
class Reader {
 public:
  explicit Reader(util::ByteSource& src) : src_(src) {}

  std::uint8_t u8(const FieldDesc& f) {
    CCVC_DCHECK(f.kind == FieldKind::kU8);
    const std::uint8_t v = src_.get_u8();
    if (v > f.bound) detail::decode_bound_failed(f, v);
    return v;
  }

  std::uint64_t uv(const FieldDesc& f) {
    CCVC_DCHECK(f.kind == FieldKind::kUvarint32 ||
                f.kind == FieldKind::kUvarint64);
    const std::uint64_t v = src_.get_uvarint();
    if (v > f.bound) detail::decode_bound_failed(f, v);
    return v;
  }

  /// kUvarint32 fields decoded straight into 32-bit identifiers.
  std::uint32_t uv32(const FieldDesc& f) {
    CCVC_DCHECK(f.kind == FieldKind::kUvarint32);
    return static_cast<std::uint32_t>(uv(f));
  }

  std::string str(const FieldDesc& f);

  std::vector<std::uint8_t> blob(const FieldDesc& f);

  /// kRepeated — reads (or, for external_count fields, accepts) the
  /// element count, rejecting claims over the declared bound first and
  /// claims over the remaining bytes second (every element costs at
  /// least one wire byte).
  std::uint64_t count(const FieldDesc& f) {
    CCVC_DCHECK(f.kind == FieldKind::kRepeated && !f.external_count);
    return check_count(f, src_.get_uvarint());
  }
  std::uint64_t count_external(const FieldDesc& f, std::uint64_t n) {
    CCVC_DCHECK(f.kind == FieldKind::kRepeated && f.external_count);
    return check_count(f, n);
  }

  util::ByteSource& source() { return src_; }

 private:
  std::uint64_t check_count(const FieldDesc& f, std::uint64_t n) {
    if (n > f.bound) detail::decode_bound_failed(f, n);
    if (n > src_.remaining()) detail::decode_length_failed(f, n);
    return n;
  }

  util::ByteSource& src_;
};

}  // namespace ccvc::wire
