#include "engine/snapshot.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {

constexpr std::uint8_t kTagClientCkpt =
    static_cast<std::uint8_t>(wire::kClientCheckpoint.tag);
constexpr std::uint8_t kTagNotifierCkpt =
    static_cast<std::uint8_t>(wire::kNotifierCheckpoint.tag);
constexpr std::uint8_t kTagNotifierBundle =
    static_cast<std::uint8_t>(wire::kNotifierBundle.tag);

// Checkpoints keep full primitive state, including captured delete text
// (the wire codec deliberately drops it; see text_op.cpp).
void put_prim(util::ByteSink& sink, const ot::PrimOp& op) {
  wire::Writer w(sink);
  w.u8(wire::f::kCkptOpKind, static_cast<std::uint8_t>(op.kind));
  w.uv(wire::f::kCkptOpPos, op.pos);
  w.uv(wire::f::kCkptOpCount, op.count);
  w.uv(wire::f::kCkptOpOrigin, op.origin);
  w.str(wire::f::kCkptOpText, op.text);
}

ot::PrimOp get_prim(util::ByteSource& src) {
  wire::Reader r(src);
  ot::PrimOp op;
  op.kind = static_cast<ot::OpKind>(r.u8(wire::f::kCkptOpKind));
  op.pos = static_cast<std::size_t>(r.uv(wire::f::kCkptOpPos));
  op.count = static_cast<std::size_t>(r.uv(wire::f::kCkptOpCount));
  op.origin = r.uv32(wire::f::kCkptOpOrigin);
  op.text = r.str(wire::f::kCkptOpText);
  return op;
}

void put_ops(util::ByteSink& sink, const ot::OpList& ops) {
  wire::Writer w(sink);
  w.count(wire::f::kCkptOps, ops.size());
  for (const auto& op : ops) put_prim(sink, op);
}

ot::OpList get_ops(util::ByteSource& src) {
  wire::Reader r(src);
  const std::uint64_t n = r.count(wire::f::kCkptOps);
  ot::OpList ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) ops.push_back(get_prim(src));
  return ops;
}

void put_id(util::ByteSink& sink, const OpId& id) {
  wire::Writer w(sink);
  w.uv(wire::f::kOpIdSite, id.site);
  w.uv(wire::f::kOpIdSeq, id.seq);
}

OpId get_id(util::ByteSource& src) {
  wire::Reader r(src);
  OpId id;
  id.site = r.uv32(wire::f::kOpIdSite);
  id.seq = r.uv(wire::f::kOpIdSeq);
  return id;
}

}  // namespace

net::Payload save_checkpoint(const ClientSite& site) {
  const ClientSite::State s = site.state();
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kClientCheckpoint);
  w.uv(wire::f::kCkptId, s.id);
  w.uv(wire::f::kCkptNumSites, s.num_sites);
  w.str(wire::f::kCkptDocument, s.document);
  s.sv.encode(sink);
  s.vc.encode(sink);
  w.count(wire::f::kCkptHb, s.hb.size());
  for (const auto& e : s.hb) {
    put_id(sink, e.id);
    w.u8(wire::f::kHbSource, e.source == clocks::HbSource::kLocal ? 1 : 0);
    e.stamp.encode(sink);
    e.full.encode(sink);
    put_ops(sink, e.executed);
  }
  w.count(wire::f::kCkptPending, s.pending.size());
  for (const auto& p : s.pending) {
    put_id(sink, p.id);
    w.uv(wire::f::kPendingOwnIndex, p.own_index);
    put_ops(sink, p.ops);
  }
  w.uv(wire::f::kCkptMaxAck, s.max_ack);
  w.uv(wire::f::kCkptHbCollected, s.hb_collected);
  w.u8(wire::f::kCkptDeparted, s.departed ? 1 : 0);
  w.count(wire::f::kCkptUndone, s.undone.size());
  for (const auto& id : s.undone) put_id(sink, id);
  return std::move(sink).take();
}

ClientSite::State load_client_checkpoint(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagClientCkpt) {
    throw util::DecodeError("not a client checkpoint");
  }
  wire::Reader r(src);
  ClientSite::State s;
  s.id = r.uv32(wire::f::kCkptId);
  s.num_sites = static_cast<std::size_t>(r.uv(wire::f::kCkptNumSites));
  s.document = r.str(wire::f::kCkptDocument);
  s.sv = clocks::CompressedSv::decode(src);
  s.vc = clocks::VersionVector::decode(src);
  const std::uint64_t hb_n = r.count(wire::f::kCkptHb);
  for (std::uint64_t i = 0; i < hb_n; ++i) {
    ClientHbEntry e;
    e.id = get_id(src);
    e.source = r.u8(wire::f::kHbSource) ? clocks::HbSource::kLocal
                                        : clocks::HbSource::kFromCenter;
    e.stamp = clocks::CompressedSv::decode(src);
    e.full = clocks::VersionVector::decode(src);
    e.executed = get_ops(src);
    s.hb.push_back(std::move(e));
  }
  const std::uint64_t p_n = r.count(wire::f::kCkptPending);
  for (std::uint64_t i = 0; i < p_n; ++i) {
    ClientSite::Pending p;
    p.id = get_id(src);
    p.own_index = r.uv(wire::f::kPendingOwnIndex);
    p.ops = get_ops(src);
    s.pending.push_back(std::move(p));
  }
  s.max_ack = r.uv(wire::f::kCkptMaxAck);
  s.hb_collected = r.uv(wire::f::kCkptHbCollected);
  s.departed = r.u8(wire::f::kCkptDeparted) != 0;
  const std::uint64_t u_n = r.count(wire::f::kCkptUndone);
  for (std::uint64_t i = 0; i < u_n; ++i) s.undone.push_back(get_id(src));
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in client checkpoint");
  }
  return s;
}

net::Payload save_checkpoint(const NotifierSite& site) {
  return encode_notifier_state(site.state());
}

net::Payload encode_notifier_state(const NotifierSite::State& s) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kNotifierCheckpoint);
  w.uv(wire::f::kNotifNumSites, s.num_sites);
  w.str(wire::f::kNotifDocument, s.document);
  s.sv0.encode(sink);
  s.vc.encode(sink);
  w.count(wire::f::kNotifHb, s.hb.size());
  for (const auto& e : s.hb) {
    put_id(sink, e.id);
    w.uv(wire::f::kNotifierHbOrigin, e.origin);
    e.stamp.encode(sink);
    put_ops(sink, e.executed);
  }
  w.count(wire::f::kNotifOutgoing, s.outgoing.size());
  for (const auto& q : s.outgoing) {
    w.count(wire::f::kBridgeEntries, q.size());
    for (const auto& b : q) {
      put_id(sink, b.id);
      w.uv(wire::f::kBridgeIndex, b.index);
      put_ops(sink, b.ops);
    }
  }
  w.count(wire::f::kNotifEnqueued, s.enqueued.size());
  for (const auto v : s.enqueued) w.uv(wire::f::kCounterValue, v);
  w.count(wire::f::kNotifAcked, s.acked.size());
  for (const auto v : s.acked) w.uv(wire::f::kCounterValue, v);
  w.count(wire::f::kNotifActive, s.active.size());
  for (const bool v : s.active) w.u8(wire::f::kActiveFlagBit, v ? 1 : 0);
  w.uv(wire::f::kNotifHbCollected, s.hb_collected);
  return std::move(sink).take();
}

NotifierSite::State load_notifier_checkpoint(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagNotifierCkpt) {
    throw util::DecodeError("not a notifier checkpoint");
  }
  wire::Reader r(src);
  NotifierSite::State s;
  s.num_sites = static_cast<std::size_t>(r.uv(wire::f::kNotifNumSites));
  s.document = r.str(wire::f::kNotifDocument);
  s.sv0 = clocks::VersionVector::decode(src);
  s.vc = clocks::VersionVector::decode(src);
  const std::uint64_t hb_n = r.count(wire::f::kNotifHb);
  for (std::uint64_t i = 0; i < hb_n; ++i) {
    StampedNotifierHbEntry e;
    e.id = get_id(src);
    e.origin = r.uv32(wire::f::kNotifierHbOrigin);
    e.stamp = clocks::VersionVector::decode(src);
    e.executed = get_ops(src);
    s.hb.push_back(std::move(e));
  }
  const std::uint64_t q_n = r.count(wire::f::kNotifOutgoing);
  for (std::uint64_t i = 0; i < q_n; ++i) {
    std::vector<NotifierSite::BridgeEntry> q;
    const std::uint64_t b_n = r.count(wire::f::kBridgeEntries);
    for (std::uint64_t k = 0; k < b_n; ++k) {
      NotifierSite::BridgeEntry b;
      b.id = get_id(src);
      b.index = r.uv(wire::f::kBridgeIndex);
      b.ops = get_ops(src);
      q.push_back(std::move(b));
    }
    s.outgoing.push_back(std::move(q));
  }
  const std::uint64_t e_n = r.count(wire::f::kNotifEnqueued);
  for (std::uint64_t i = 0; i < e_n; ++i) {
    s.enqueued.push_back(r.uv(wire::f::kCounterValue));
  }
  const std::uint64_t a_n = r.count(wire::f::kNotifAcked);
  for (std::uint64_t i = 0; i < a_n; ++i) {
    s.acked.push_back(r.uv(wire::f::kCounterValue));
  }
  const std::uint64_t act_n = r.count(wire::f::kNotifActive);
  for (std::uint64_t i = 0; i < act_n; ++i) {
    s.active.push_back(r.u8(wire::f::kActiveFlagBit) != 0);
  }
  s.hb_collected = r.uv(wire::f::kNotifHbCollected);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in notifier checkpoint");
  }
  return s;
}

net::Payload encode_notifier_bundle(const NotifierBundle& bundle) {
  CCVC_CHECK_MSG(bundle.links.size() == bundle.num_sites,
                 "notifier bundle needs one link state per site");
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kNotifierBundle);
  w.uv(wire::f::kBundleNumSites, bundle.num_sites);
  const net::Payload blob = encode_notifier_state(bundle.notifier);
  w.blob(wire::f::kBundleNotifierBlob, blob.data(), blob.size());
  w.count(wire::f::kBundleLinks, bundle.links.size());
  for (const ReliableLink::State& link : bundle.links) {
    ReliableLink::encode_state(link, sink);
  }
  return std::move(sink).take();
}

NotifierBundle decode_notifier_bundle(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagNotifierBundle) {
    throw util::DecodeError("not a notifier checkpoint bundle");
  }
  wire::Reader r(src);
  NotifierBundle bundle;
  bundle.num_sites = static_cast<std::size_t>(r.uv(wire::f::kBundleNumSites));
  const net::Payload blob = r.blob(wire::f::kBundleNotifierBlob);
  bundle.notifier = load_notifier_checkpoint(blob);
  // One link state per site; each consumes ≥ 3 bytes or throws, so a
  // hostile num_sites cannot loop past the input.
  r.count_external(wire::f::kBundleLinks, bundle.num_sites);
  for (std::size_t i = 0; i < bundle.num_sites; ++i) {
    bundle.links.push_back(ReliableLink::decode_state(src));
  }
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in notifier bundle");
  }
  return bundle;
}

}  // namespace ccvc::engine
