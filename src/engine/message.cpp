#include "engine/message.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {

// Tags come from the declarative schema (src/wire/schema.hpp), which is
// what ccvc_schema diffs against docs/PROTOCOL.md §2.0.
constexpr std::uint8_t kTagClient =
    static_cast<std::uint8_t>(wire::kClientMsg.tag);
constexpr std::uint8_t kTagCenter =
    static_cast<std::uint8_t>(wire::kCenterMsg.tag);
constexpr std::uint8_t kTagLeave =
    static_cast<std::uint8_t>(wire::kLeaveMsg.tag);
constexpr std::uint8_t kTagBatch =
    static_cast<std::uint8_t>(wire::kEgressBatch.tag);

void encode_stamp(const Stamp& stamp, StampMode mode, util::ByteSink& sink) {
  switch (mode) {
    case StampMode::kCompressed:
      stamp.csv.encode(sink);
      break;
    case StampMode::kFullVector:
      stamp.full.encode(sink);
      break;
  }
}

Stamp decode_stamp(util::ByteSource& src, StampMode mode) {
  Stamp stamp;
  switch (mode) {
    case StampMode::kCompressed:
      stamp.csv = clocks::CompressedSv::decode(src);
      break;
    case StampMode::kFullVector:
      stamp.full = clocks::VersionVector::decode(src);
      break;
  }
  return stamp;
}

void encode_id(const OpId& id, util::ByteSink& sink) {
  wire::Writer w(sink);
  w.uv(wire::f::kOpIdSite, id.site);
  w.uv(wire::f::kOpIdSeq, id.seq);
}

OpId decode_id(util::ByteSource& src) {
  wire::Reader r(src);
  OpId id;
  id.site = r.uv32(wire::f::kOpIdSite);
  id.seq = r.uv(wire::f::kOpIdSeq);
  return id;
}

// Decoded messages are immediately decomposed into 1-char delete
// primitives, so a hostile Delete[n, p] count is an allocation
// amplifier: a 3-byte wire op can claim a multi-exabyte expansion.
// Cap the total expansion at the wire boundary; 1 Mi primitives per
// message is far beyond any real editing burst.  The budget equals the
// schema's declared op-list bound, so decomposition can never expand a
// message past what the wire layer admits.
constexpr std::uint64_t kMaxDecodedPrimitives = wire::kMaxOps;

void check_decompose_budget(const ot::OpList& ops) {
  std::uint64_t total = 0;
  for (const auto& op : ops) {
    total += (op.kind == ot::OpKind::kDelete && op.count > 1) ? op.count : 1;
    if (total > kMaxDecodedPrimitives)
      throw util::DecodeError("op list expands past the decode budget");
  }
}

}  // namespace

const char* to_string(StampMode m) {
  switch (m) {
    case StampMode::kCompressed:
      return "compressed-2";
    case StampMode::kFullVector:
      return "full-vector";
  }
  return "?";
}

net::Payload encode(const ClientMsg& msg, StampMode mode) {
  util::ByteSink sink;
  wire::Writer(sink).tag(wire::kClientMsg);
  encode_id(msg.id, sink);
  encode_stamp(msg.stamp, mode, sink);
  // REDUCE wire form: Delete[n, p] ships as one op, not n primitives.
  ot::encode(ot::coalesce(msg.ops), sink);
  return std::move(sink).take();
}

net::Payload encode(const CenterMsg& msg, StampMode mode) {
  return CenterMsgEncoder(msg.id, msg.ops).stamped(msg.stamp, mode);
}

CenterMsgEncoder::CenterMsgEncoder(const OpId& id, const ot::OpList& ops) {
  util::ByteSink sink;
  wire::Writer(sink).tag(wire::kCenterMsg);
  encode_id(id, sink);
  head_size_ = sink.size();
  ot::encode(ot::coalesce(ops), sink);
  head_and_body_ = std::move(sink).take();
}

net::Payload CenterMsgEncoder::stamped(const Stamp& stamp,
                                       StampMode mode) const {
  util::ByteSink sink(stamped_size(stamp, mode));
  put_stamped(sink, stamp, mode);
  return std::move(sink).take();
}

std::size_t CenterMsgEncoder::stamped_size(const Stamp& stamp,
                                           StampMode mode) const {
  return head_and_body_.size() + stamp_wire_size(stamp, mode);
}

void CenterMsgEncoder::put_stamped(util::ByteSink& sink, const Stamp& stamp,
                                   StampMode mode) const {
  sink.put_raw(head_and_body_.data(), head_size_);
  encode_stamp(stamp, mode, sink);
  sink.put_raw(head_and_body_.data() + head_size_,
               head_and_body_.size() - head_size_);
}

ClientMsg decode_client_msg(const net::Payload& bytes, StampMode mode) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagClient) {
    throw util::DecodeError("not a client message");
  }
  ClientMsg msg;
  msg.id = decode_id(src);
  msg.stamp = decode_stamp(src, mode);
  // Back to 1-char delete primitives for transformation.
  ot::OpList wire_ops = ot::decode_op_list(src);
  check_decompose_budget(wire_ops);
  msg.ops = ot::decompose(wire_ops);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in client message");
  }
  return msg;
}

CenterMsg decode_center_msg(const net::Payload& bytes, StampMode mode) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagCenter) {
    throw util::DecodeError("not a center message");
  }
  CenterMsg msg;
  msg.id = decode_id(src);
  msg.stamp = decode_stamp(src, mode);
  ot::OpList wire_ops = ot::decode_op_list(src);
  check_decompose_budget(wire_ops);
  msg.ops = ot::decompose(wire_ops);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in center message");
  }
  return msg;
}

net::Payload encode_leave(SiteId site) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kLeaveMsg);
  w.uv(wire::f::kLeaveSite, site);
  return std::move(sink).take();
}

bool is_leave_msg(const net::Payload& bytes) {
  return !bytes.empty() && bytes[0] == kTagLeave;
}

SiteId decode_leave(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagLeave) {
    throw util::DecodeError("not a leave message");
  }
  const SiteId site = wire::Reader(src).uv32(wire::f::kLeaveSite);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in leave message");
  }
  return site;
}

BatchFrame::BatchFrame(std::size_t max_msgs, std::size_t reserve)
    : max_msgs_(max_msgs), sink_(reserve) {
  CCVC_CHECK_MSG(max_msgs >= 1,
                 "an egress batch carries at least one message");
  wire::Writer(sink_).counted_head_room(wire::f::kBatchMsgs, max_msgs);
}

void BatchFrame::add(const net::Payload& msg) {
  CCVC_CHECK_MSG(count_ < max_msgs_, "batch frame is full");
  CCVC_CHECK_MSG(!msg.empty(), "batched messages are never empty");
  wire::Writer(sink_).blob(wire::f::kBatchPayload, msg.data(), msg.size());
  ++count_;
}

void BatchFrame::add(const CenterMsgEncoder& msg, const Stamp& stamp,
                     StampMode mode) {
  CCVC_CHECK_MSG(count_ < max_msgs_, "batch frame is full");
  const std::size_t size = msg.stamped_size(stamp, mode);
  wire::Writer(sink_).blob_head(wire::f::kBatchPayload, size);
  const std::size_t start = sink_.size();
  msg.put_stamped(sink_, stamp, mode);
  CCVC_DCHECK(sink_.size() - start == size);
  (void)start;
  ++count_;
}

net::Payload BatchFrame::close() && {
  CCVC_CHECK_MSG(count_ >= 1, "an egress batch carries at least one message");
  net::Payload frame = std::move(sink_).take();
  wire::finish_counted_head(frame, wire::kEgressBatch, max_msgs_, count_);
  return frame;
}

net::Payload encode_batch(const std::vector<net::Payload>& msgs) {
  std::size_t size = 1 + util::uvarint_size(msgs.size());
  for (const net::Payload& m : msgs) {
    size += util::uvarint_size(m.size()) + m.size();
  }
  BatchFrame frame(msgs.size(), size);
  for (const net::Payload& m : msgs) frame.add(m);
  return std::move(frame).close();
}

bool is_batch_msg(const net::Payload& bytes) {
  return !bytes.empty() && bytes[0] == kTagBatch;
}

std::vector<net::Payload> decode_batch(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagBatch) {
    throw util::DecodeError("not an egress batch");
  }
  wire::Reader r(src);
  const std::uint64_t n = r.count(wire::f::kBatchMsgs);
  if (n == 0) {
    throw util::DecodeError("empty egress batch");
  }
  std::vector<net::Payload> msgs;
  msgs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    net::Payload m = r.blob(wire::f::kBatchPayload);
    if (m.empty()) {
      throw util::DecodeError("empty message inside an egress batch");
    }
    msgs.push_back(std::move(m));
  }
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in egress batch");
  }
  return msgs;
}

std::size_t stamp_wire_size(const Stamp& stamp, StampMode mode) {
  switch (mode) {
    case StampMode::kCompressed:
      return stamp.csv.encoded_size();
    case StampMode::kFullVector:
      return stamp.full.encoded_size();
  }
  return 0;
}

}  // namespace ccvc::engine
