#include "wire/engine.hpp"

#include <sstream>

#include "util/checksum.hpp"

namespace ccvc::wire {

namespace detail {

void encode_bound_failed(const FieldDesc& f, std::uint64_t v) {
  std::ostringstream os;
  os << "wire field '" << f.name << "' value " << v
     << " exceeds its declared bound " << f.bound;
  throw ContractViolation(os.str());
}

void decode_bound_failed(const FieldDesc& f, std::uint64_t v) {
  std::ostringstream os;
  os << "wire field '" << f.name << "': decoded value " << v
     << " exceeds its declared bound " << f.bound;
  throw util::DecodeError(os.str());
}

void decode_length_failed(const FieldDesc& f, std::uint64_t n) {
  std::ostringstream os;
  os << "wire field '" << f.name << "': length claim " << n
     << " exceeds the remaining message bytes";
  throw util::DecodeError(os.str());
}

}  // namespace detail

void Writer::crc(const FieldDesc& f) {
  CCVC_DCHECK(f.kind == FieldKind::kCrc32);
  (void)f;
  const std::uint32_t crc = util::crc32(sink_.bytes());
  sink_.put_u8(static_cast<std::uint8_t>(crc));
  sink_.put_u8(static_cast<std::uint8_t>(crc >> 8));
  sink_.put_u8(static_cast<std::uint8_t>(crc >> 16));
  sink_.put_u8(static_cast<std::uint8_t>(crc >> 24));
}

namespace {

// Tag byte + count varint.
std::size_t counted_head_size(std::uint64_t n) {
  return 1 + util::uvarint_size(n);
}

}  // namespace

void Writer::counted_head_room(const FieldDesc& f, std::uint64_t max_n) {
  CCVC_DCHECK(f.kind == FieldKind::kRepeated && !f.external_count);
  if (max_n > f.bound) detail::encode_bound_failed(f, max_n);
  for (std::size_t i = counted_head_size(max_n); i > 0; --i) sink_.put_u8(0);
}

void finish_counted_head(std::vector<std::uint8_t>& msg, const MessageDesc& d,
                         std::uint64_t max_n, std::uint64_t n) {
  CCVC_DCHECK(d.tag != kNoTag);
  CCVC_CHECK_MSG(n <= max_n, "count exceeds the room reserved for it");
  const std::size_t room = counted_head_size(max_n);
  const std::size_t unused = room - counted_head_size(n);
  CCVC_CHECK(msg.size() >= room);
  std::uint8_t* out = msg.data() + unused;
  *out++ = static_cast<std::uint8_t>(d.tag);
  util::encode_uvarint(n, out);
  if (unused > 0) {
    msg.erase(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(unused));
  }
}

std::string Reader::str(const FieldDesc& f) {
  CCVC_DCHECK(f.kind == FieldKind::kString);
  // Peek the length prefix ourselves so the bound check runs before
  // get_string touches the remaining-bytes contract.
  const std::uint64_t n = src_.get_uvarint();
  if (n > f.bound) detail::decode_bound_failed(f, n);
  if (n > src_.remaining()) detail::decode_length_failed(f, n);
  std::string s;
  s.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(src_.get_u8()));
  }
  return s;
}

std::vector<std::uint8_t> Reader::blob(const FieldDesc& f) {
  CCVC_DCHECK(f.kind == FieldKind::kBytes);
  const std::uint64_t n = src_.get_uvarint();
  if (n > f.bound) detail::decode_bound_failed(f, n);
  if (n > src_.remaining()) detail::decode_length_failed(f, n);
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(src_.get_u8());
  return out;
}

const MessageDesc* find_by_tag(int tag) {
  if (tag == kNoTag) return nullptr;  // untagged records never match
  for (const MessageDesc* m : kRegistry) {
    if (m->tag == tag) return m;
  }
  return nullptr;
}

}  // namespace ccvc::wire
