// The notifier — site 0 at the center of the star (§2.1, §3).
//
// "The notifier site maps the N-way communication among N sites into a
// 2-way communication between itself and a collaborating site" — and,
// crucially for the clock compression, it transforms every incoming
// operation against its concurrent predecessors *before* re-broadcast,
// which converts the N-dimensional causality relation into a
// 2-dimensional one (§3.1).
//
// Responsibilities, mapped to the paper:
//  * full copy of the shared document, executing every operation;
//  * full N-element state vector SV_0 (§3.2) — kept local, never shipped;
//  * per-destination compressed stamps via eq. (1)-(2) (§3.3);
//  * full-vector timestamps on buffered operations (§3.3);
//  * concurrency checking with formula (7) (§4.2);
//  * transformation against concurrent HB operations (§2.3).
//
// The control is the server half of client/server OT: one outgoing
// queue per client holds the operations executed at site 0 that the
// client has not acknowledged, continuously context-updated, always
// ending at the current server document context.  Invariant (asserted):
// the number of operations ever enqueued for client y equals
// Σ_{j≠y} SV_0[j] — exactly eq. (1) — and after acknowledgement-dropping
// the queue for an arriving op's origin holds exactly the operations
// formula (7) classifies as concurrent.
//
// Fan-out is encode-once, stamp-per-destination: by eq. (1)-(2) the N-1
// copies of one re-broadcast O' differ only in their 2-integer stamp, so
// apply_uplink encodes the CenterMsg head and op body once
// (CenterMsgEncoder) and hands each destination that encoder and its
// stamp (BroadcastFn); nothing is materialized per destination unless
// the receiver asks for it — the SendFn adapter stamps one exact-size
// buffer, the threaded runtime writes straight into the destination's
// 0xC5 frame.
//
// HB_0 and the untouched tail of every outgoing queue are one commit
// log, appended once per op.  Client y's queue is its detached
// (transformed) entries, then the log entries committed after y's
// cursor; y's op detaches the rest, as a transform rewrites the whole
// queue.  No entry stores its SV_0 stamp: formula (7) and history GC
// derive it from log_base_ and the origins, checkpoints materialize it.
#pragma once

#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "doc/document.hpp"
#include "engine/config.hpp"
#include "engine/history.hpp"
#include "engine/message.hpp"
#include "engine/observer.hpp"
#include "net/channel.hpp"

namespace ccvc::engine {

class NotifierSite {
 public:
  /// Sends an encoded message toward client `dest`.
  using SendFn = std::function<void(SiteId dest, net::Payload bytes)>;

  /// Receives one destination's copy of a broadcast without it being
  /// materialized: the once-encoded O' and the destination's eq. (1)-(2)
  /// stamp.  msg.stamped(stamp, cfg.stamp_mode) is the message a SendFn
  /// would be handed.
  using BroadcastFn = std::function<void(
      SiteId dest, const CenterMsgEncoder& msg, const Stamp& stamp)>;

  NotifierSite(std::size_t num_sites, std::string_view initial_doc,
               const EngineConfig& cfg, BroadcastFn broadcast,
               EngineObserver* observer = nullptr);

  /// The SendFn form: each destination's message is stamped into its
  /// own buffer and passed to `send_to_client`.
  NotifierSite(std::size_t num_sites, std::string_view initial_doc,
               const EngineConfig& cfg, SendFn send_to_client,
               EngineObserver* observer = nullptr);

  /// Handles one message from client `from` (install as the receiving
  /// channel's callback, bound per client).  Equivalent to
  /// apply_uplink(parse_uplink(from, bytes, cfg)).
  void on_client_message(SiteId from, const net::Payload& bytes);

  /// A decoded, channel-validated uplink message: the output of the
  /// stateless parse stage and the input of the stateful single-writer
  /// stage.  The threaded runtime runs parse_uplink on each submit()
  /// caller, concurrently; apply_uplink always runs on exactly one
  /// thread (docs/THREADING.md §2; `ccvc_sa single-writer` pins it).
  struct ParsedUplink {
    SiteId from = 0;
    bool leave = false;
    ClientMsg msg;  // meaningless when leave
  };

  /// Stateless decode + wrong-channel validation of one uplink payload.
  /// Touches no NotifierSite state, so any thread may call it.
  static ParsedUplink parse_uplink(SiteId from, const net::Payload& bytes,
                                   const EngineConfig& cfg);

  /// The stateful remainder of on_client_message: formula-(7)
  /// concurrency check, bridge ack-drop, transformation, eq. (1)-(2)
  /// stamping, and broadcast.  Single-writer — never called from two
  /// threads concurrently.
  void apply_uplink(ParsedUplink parsed);

  /// Everything a late joiner needs to enter the session consistently:
  /// its id, the document snapshot, and how many center operations that
  /// snapshot embodies (the initial SV_i[1] — the snapshot counts as
  /// having received them all).
  struct JoinTicket {
    SiteId site = 0;
    std::string document;
    std::uint64_t ops_embodied = 0;
    clocks::VersionVector vc_snapshot;  // kFullVector mode only
  };

  /// Admits a new collaborating site (dynamic membership — the paper's
  /// demonstrator "allows an arbitrary number of users to participate").
  /// Clients never track N, so nothing needs to be told to the others.
  JoinTicket add_site();

  /// Everything a crash-restarted client needs to rejoin with a fresh
  /// replica: the notifier's document snapshot, the center operations it
  /// embodies (the restarted SV_i[1]) and the site's preserved own-
  /// generation count (the restarted SV_i[2], so new operations continue
  /// the numbering SV_0[site] expects).
  struct ResyncTicket {
    std::string document;
    std::uint64_t ops_embodied = 0;
    std::uint64_t own_ops = 0;
  };

  /// Re-synchronizes a crashed client from the notifier's current state,
  /// like a late joiner that keeps its site id: the site's bridge queue
  /// resets (the snapshot embodies everything) and its acknowledgement
  /// counters jump to the snapshot point.  Local operations the crash
  /// destroyed before they reached the notifier are gone — that is what
  /// crashing means.  Compressed stamp mode only.
  ResyncTicket resync_site(SiteId site);

  /// Marks a site as departed: no further broadcasts or bridge state for
  /// it, and garbage collection stops waiting for its acknowledgements.
  /// Its past operations (and its slot in SV_0) remain — departure does
  /// not rewrite history.
  void remove_site(SiteId site);

  bool is_active(SiteId site) const;

  // --- inspection ----------------------------------------------------
  std::size_t num_sites() const { return num_sites_; }
  std::string text() const { return doc_.text(); }
  const doc::Document& document() const { return doc_; }
  const clocks::NotifierClock& state_vector() const { return clock_; }
  /// HB_0: the commit log, oldest retained entry first.
  const std::deque<NotifierHbEntry>& history() const { return log_; }
  std::size_t outgoing_count(SiteId client) const;
  /// HB entries dropped by garbage collection (gc_history mode).
  std::uint64_t hb_collected() const { return log_base_.total(); }

  /// A bridge-queue entry by value — the checkpoint form.
  struct BridgeEntry {
    OpId id;
    std::uint64_t index;  // 1-based enqueue counter for this client
    ot::OpList ops;       // context-updated form in the client's frame

    friend bool operator==(const BridgeEntry&, const BridgeEntry&) = default;
  };

  /// Complete protocol state, exportable for checkpoint/restore
  /// (engine/snapshot.hpp).
  struct State {
    std::size_t num_sites = 0;
    std::string document;
    clocks::VersionVector sv0;
    clocks::VersionVector vc;
    std::vector<StampedNotifierHbEntry> hb;
    std::vector<std::vector<BridgeEntry>> outgoing;  // [client id]
    std::vector<std::uint64_t> enqueued;
    std::vector<std::uint64_t> acked;
    std::vector<bool> active;
    std::uint64_t hb_collected = 0;

    friend bool operator==(const State&, const State&) = default;
  };

  State state() const;

  /// Restores a checkpointed notifier; `cfg` must match.  The HB stamps
  /// must be the ones the commit order implies (each one the previous
  /// plus 1 at its origin, the last one SV_0, hb_collected the ops
  /// before the first), or ContractViolation.
  NotifierSite(const State& state, const EngineConfig& cfg,
               SendFn send_to_client, EngineObserver* observer = nullptr);

 private:
  /// The SendFn constructors' adapter onto BroadcastFn.
  static BroadcastFn stamp_and_send(SendFn send, StampMode mode);

  std::size_t num_sites_;
  EngineConfig cfg_;
  BroadcastFn broadcast_;
  EngineObserver* observer_;

  doc::Document doc_;
  clocks::NotifierClock clock_;
  clocks::VersionVector vc_;  // (N+1)-vector, kFullVector mode only
  void gc_history();

  /// The log entry with commit sequence `seq` (Σ SV_0 after it).
  const NotifierHbEntry& logged(std::uint64_t seq) const {
    return log_[seq - log_base_.total() - 1];
  }
  /// Client y's queue shares the log entries with commit sequences in
  /// (shared_after(y), clock_.total()].
  std::uint64_t shared_after(SiteId y) const;
  /// Moves y's shared entries past bridge index `acked` into detached_[y].
  void detach(SiteId y, std::uint64_t acked);

  std::deque<NotifierHbEntry> log_;                 // HB_0
  clocks::NotifierClock log_base_;                  // SV_0 before log front
  std::vector<std::deque<BridgeEntry>> detached_;   // [client id]
  std::vector<std::uint64_t> cursor_;               // [client id]
  std::vector<std::uint64_t> enqueued_;             // total ever, per client
  std::vector<std::uint64_t> acked_;                // latest T[1] per client
  std::vector<bool> active_;                        // departed sites: false
};

}  // namespace ccvc::engine
