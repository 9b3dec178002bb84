// Wire messages of the star protocol and their codecs.
//
// Two message types flow through the star:
//   ClientMsg — site i -> notifier: an original operation stamped with
//               the client's 2-element state vector (§3.3).
//   CenterMsg — notifier -> site i: the notifier's executed form O' of
//               an operation, stamped with the per-destination
//               compressed vector of eq. (1)-(2).  O' is the same for
//               every destination, so a broadcast encodes it once
//               (CenterMsgEncoder) and only the stamp differs.
//
// StampMode selects what rides on the wire: the paper's 2-integer
// compressed vector, or the full (N+1)-element vector clock of the
// pre-compression baseline ("most group editors have used a full vector
// clock of N elements", §3.1).  Experiment E3 compares the resulting
// byte counts directly off the channel statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "net/channel.hpp"
#include "ot/text_op.hpp"
#include "util/types.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {

enum class StampMode : std::uint8_t {
  kCompressed,  ///< the paper's 2-element compressed state vector
  kFullVector,  ///< baseline: full (N+1)-element vector clock
};

const char* to_string(StampMode m);

/// Timestamp attached to a message.  Exactly one representation is
/// populated, according to the session's StampMode.
struct Stamp {
  clocks::CompressedSv csv;     // kCompressed
  clocks::VersionVector full;   // kFullVector (empty otherwise)
};

struct ClientMsg {
  OpId id;          // id.site is the originating client
  ot::OpList ops;   // the operation in the client's generation context
  Stamp stamp;
};

struct CenterMsg {
  OpId id;          // id of the original op this O' was derived from
  ot::OpList ops;   // the notifier's executed form O', same for every dest
  Stamp stamp;      // eq. (1)-(2): the only per-destination part
};

net::Payload encode(const ClientMsg& msg, StampMode mode);
net::Payload encode(const CenterMsg& msg, StampMode mode);

/// One CenterMsg broadcast, encoded once: the head (tag + OpId) and the
/// coalesced op body are the same bytes for every destination, so a
/// destination's message is those bytes with its stamp spliced between
/// them.
/// stamped(s, mode) == encode(CenterMsg{id, ops, s}, mode), byte for byte.
class CenterMsgEncoder {
 public:
  CenterMsgEncoder(const OpId& id, const ot::OpList& ops);

  /// The stamped message in one exact-size buffer.
  net::Payload stamped(const Stamp& stamp, StampMode mode) const;

  /// stamped()'s size and bytes, appended to `sink` with no buffer of
  /// their own.
  std::size_t stamped_size(const Stamp& stamp, StampMode mode) const;
  void put_stamped(util::ByteSink& sink, const Stamp& stamp,
                   StampMode mode) const;

 private:
  net::Payload head_and_body_;
  std::size_t head_size_ = 0;
};

ClientMsg decode_client_msg(const net::Payload& bytes, StampMode mode);
CenterMsg decode_center_msg(const net::Payload& bytes, StampMode mode);

/// Departure is an in-band control message on the FIFO uplink — like a
/// TCP close, it arrives *after* everything the site sent before
/// leaving, which is what keeps the notifier's acknowledgement-based
/// reasoning (bridge ack-drops, history GC) sound.
net::Payload encode_leave(SiteId site);

/// True if `bytes` is a leave control message (check before decoding as
/// a ClientMsg).
bool is_leave_msg(const net::Payload& bytes);

/// Decodes a leave message, returning the departing site.
SiteId decode_leave(const net::Payload& bytes);

/// The 0xC5 EgressBatch frame writer (docs/PROTOCOL.md §2.8) — the only
/// code that emits 0xC5 bytes: encode_batch and the threaded runtime's
/// per-destination BatchAssembler both write through it.  A frame is
/// written in place, in one buffer: it opens with room for the tag and
/// the largest count, each entry is appended as it arrives, and close()
/// writes the header into that room.
class BatchFrame {
 public:
  /// Opens a frame for at most `max_msgs` (in [1, wire::kMaxBatchMsgs])
  /// entries, with capacity for `reserve` bytes.
  BatchFrame(std::size_t max_msgs, std::size_t reserve);

  /// Appends one complete, non-empty downlink message (its §2 tag byte
  /// included) as the next entry.
  void add(const net::Payload& msg);

  /// Appends `msg` stamped with `stamp` as the next entry: the bytes of
  /// add(msg.stamped(stamp, mode)), with no message buffer in between.
  void add(const CenterMsgEncoder& msg, const Stamp& stamp, StampMode mode);

  /// Entries appended so far.
  std::size_t size() const { return count_; }
  /// Bytes written so far, the header's room included.
  std::size_t bytes() const { return sink_.size(); }

  /// Writes the header for the entries appended (at least one) and
  /// returns the frame; the writer is spent.
  net::Payload close() &&;

 private:
  std::size_t max_msgs_;
  std::size_t count_ = 0;
  util::ByteSink sink_;
};

/// Coalesces complete downlink messages (each with its own §2 tag byte)
/// into one 0xC5 EgressBatch frame for a single destination.  `msgs`
/// must be non-empty, each payload non-empty, and at most
/// wire::kMaxBatchMsgs entries.
net::Payload encode_batch(const std::vector<net::Payload>& msgs);

/// True if `bytes` is an egress batch frame (check before decoding the
/// inner messages individually).
bool is_batch_msg(const net::Payload& bytes);

/// Splits a batch frame back into the coalesced message payloads, in
/// order.  Rejects empty batches, empty entries, and trailing bytes —
/// the canonical form is exactly what encode_batch emits.
std::vector<net::Payload> decode_batch(const net::Payload& bytes);

/// Encoded size of just the timestamp portion of a message in the given
/// mode — used by E3 to separate clock overhead from op payload.
std::size_t stamp_wire_size(const Stamp& stamp, StampMode mode);

}  // namespace ccvc::engine
