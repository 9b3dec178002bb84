#include "engine/mesh_site.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {
constexpr std::uint8_t kTagMesh = static_cast<std::uint8_t>(wire::kMeshMsg.tag);
}

const char* to_string(MeshStamp m) {
  switch (m) {
    case MeshStamp::kFullVector:
      return "mesh-full-vector";
    case MeshStamp::kSkDiff:
      return "mesh-sk-diff";
  }
  return "?";
}

net::Payload encode(const MeshMsg& msg, MeshStamp mode) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kMeshMsg);
  w.uv(wire::f::kOpIdSite, msg.id.site);
  w.uv(wire::f::kOpIdSeq, msg.id.seq);
  switch (mode) {
    case MeshStamp::kFullVector:
      msg.full.encode(sink);
      break;
    case MeshStamp::kSkDiff:
      clocks::encode_sk(msg.sk, sink);
      break;
  }
  ot::encode(msg.ops, sink);
  return std::move(sink).take();
}

MeshMsg decode_mesh_msg(const net::Payload& bytes, MeshStamp mode) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagMesh) {
    throw util::DecodeError("not a mesh message");
  }
  wire::Reader r(src);
  MeshMsg msg;
  msg.id.site = r.uv32(wire::f::kOpIdSite);
  msg.id.seq = r.uv(wire::f::kOpIdSeq);
  switch (mode) {
    case MeshStamp::kFullVector:
      msg.full = clocks::VersionVector::decode(src);
      break;
    case MeshStamp::kSkDiff:
      msg.sk = clocks::decode_sk(src);
      break;
  }
  msg.ops = ot::decode_op_list(src);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in mesh message");
  }
  return msg;
}

MeshSite::MeshSite(SiteId id, std::size_t num_sites, MeshStamp mode,
                   SendFn send, EngineObserver* observer)
    : id_(id),
      num_sites_(num_sites),
      mode_(mode),
      send_(std::move(send)),
      observer_(observer),
      vc_(num_sites + 1) {
  CCVC_CHECK(id_ >= 1 && id_ <= num_sites_);
  CCVC_CHECK(static_cast<bool>(send_));
  if (mode_ == MeshStamp::kSkDiff) {
    sk_.emplace(id_, num_sites + 1);
  }
}

const clocks::VersionVector& MeshSite::clock() const {
  return mode_ == MeshStamp::kSkDiff ? sk_->clock() : vc_;
}

std::size_t MeshSite::clock_memory_bytes() const {
  if (mode_ == MeshStamp::kSkDiff) return sk_->memory_bytes();
  return vc_.size() * sizeof(std::uint64_t);
}

OpId MeshSite::broadcast(ot::OpList ops) {
  const OpId id{id_, ++own_seq_};
  switch (mode_) {
    case MeshStamp::kFullVector: {
      vc_.tick(id_);
      MeshMsg msg{id, std::move(ops), vc_, {}};
      if (observer_) observer_->on_mesh_generate(id_, id, vc_);
      delivered_.push_back(id);
      for (SiteId dest = 1; dest <= num_sites_; ++dest) {
        if (dest == id_) continue;
        net::Payload bytes = encode(msg, mode_);
        if (observer_) {
          observer_->on_wire(id_, dest, bytes.size(),
                             msg.full.encoded_size());
        }
        send_(dest, std::move(bytes));
      }
      break;
    }
    case MeshStamp::kSkDiff: {
      // SK is inherently pairwise: a broadcast is N−1 send events, each
      // with its own differential timestamp.
      if (observer_) observer_->on_mesh_generate(id_, id, sk_->clock());
      delivered_.push_back(id);
      for (SiteId dest = 1; dest <= num_sites_; ++dest) {
        if (dest == id_) continue;
        MeshMsg msg{id, ops, clocks::VersionVector{},
                    sk_->prepare_send(dest)};
        net::Payload bytes = encode(msg, mode_);
        if (observer_) {
          observer_->on_wire(id_, dest, bytes.size(),
                             clocks::sk_encoded_size(msg.sk));
        }
        send_(dest, std::move(bytes));
      }
      break;
    }
  }
  return id;
}

bool MeshSite::ready(const clocks::VersionVector& stamp, SiteId from) const {
  // Birman/Schiper/Stephenson causal-delivery condition: the message is
  // the next one from its sender, and everything it causally depends on
  // from third parties has been delivered here.
  if (stamp[from] != vc_[from] + 1) return false;
  for (SiteId k = 1; k <= num_sites_; ++k) {
    if (k != from && stamp[k] > vc_[k]) return false;
  }
  return true;
}

void MeshSite::deliver(const MeshMsg& msg, SiteId from) {
  vc_.merge(msg.full);
  delivered_.push_back(msg.id);
  if (observer_) observer_->on_mesh_deliver(id_, msg.id);
  (void)from;
}

void MeshSite::try_deliver_held() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < held_.size(); ++i) {
      if (ready(held_[i].msg.full, held_[i].from)) {
        deliver(held_[i].msg, held_[i].from);
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;
      }
    }
  }
}

void MeshSite::on_message(SiteId from, const net::Payload& bytes) {
  CCVC_CHECK(from >= 1 && from <= num_sites_ && from != id_);
  MeshMsg msg = decode_mesh_msg(bytes, mode_);
  switch (mode_) {
    case MeshStamp::kFullVector:
      if (ready(msg.full, from)) {
        deliver(msg, from);
        try_deliver_held();
      } else {
        held_.push_back(Held{from, std::move(msg)});
      }
      break;
    case MeshStamp::kSkDiff:
      sk_->on_receive(msg.sk);
      delivered_.push_back(msg.id);
      if (observer_) observer_->on_mesh_deliver(id_, msg.id);
      break;
  }
}

}  // namespace ccvc::engine
