#include "engine/notifier_site.hpp"

#include <algorithm>
#include <utility>

#include "ot/transform.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace ccvc::engine {
namespace {

// An HB_0 entry's stamp: SV_0 just after it (`sv`), over the sites of
// its time — later joiners' components (all zero then) are dropped.
clocks::VersionVector stamp_of(const NotifierHbEntry& e,
                               const clocks::VersionVector& sv) {
  std::vector<std::uint64_t> v(e.width + 1);
  for (std::size_t j = 0; j < v.size(); ++j) v[j] = sv[j];
  return clocks::VersionVector(std::move(v));
}

}  // namespace

NotifierSite::NotifierSite(std::size_t num_sites, std::string_view initial_doc,
                           const EngineConfig& cfg, BroadcastFn broadcast,
                           EngineObserver* observer)
    : num_sites_(num_sites),
      cfg_(cfg),
      broadcast_(std::move(broadcast)),
      observer_(observer),
      doc_(initial_doc),
      clock_(num_sites),
      vc_(cfg.stamp_mode == StampMode::kFullVector ? num_sites + 1 : 0),
      log_base_(num_sites),
      detached_(num_sites + 1),
      cursor_(num_sites + 1, 0),
      enqueued_(num_sites + 1, 0),
      acked_(num_sites + 1, 0),
      active_(num_sites + 1, true) {
  CCVC_CHECK(static_cast<bool>(broadcast_));
}

NotifierSite::NotifierSite(std::size_t num_sites, std::string_view initial_doc,
                           const EngineConfig& cfg, SendFn send_to_client,
                           EngineObserver* observer)
    : NotifierSite(num_sites, initial_doc, cfg,
                   stamp_and_send(std::move(send_to_client), cfg.stamp_mode),
                   observer) {}

NotifierSite::BroadcastFn NotifierSite::stamp_and_send(SendFn send,
                                                       StampMode mode) {
  CCVC_CHECK(static_cast<bool>(send));
  return [send = std::move(send), mode](SiteId dest,
                                        const CenterMsgEncoder& msg,
                                        const Stamp& stamp) {
    send(dest, msg.stamped(stamp, mode));
  };
}

NotifierSite::State NotifierSite::state() const {
  State s;
  s.num_sites = num_sites_;
  s.document = doc_.text();
  s.sv0 = clock_.full();
  s.vc = vc_;
  s.hb.reserve(log_.size());
  clocks::VersionVector sv = log_base_.full();
  for (const NotifierHbEntry& e : log_) {
    sv.tick(e.origin);
    s.hb.push_back(
        StampedNotifierHbEntry{e.id, e.origin, stamp_of(e, sv), e.executed});
  }
  s.outgoing.reserve(detached_.size());
  for (SiteId y = 0; y < detached_.size(); ++y) {
    auto& out = s.outgoing.emplace_back(detached_[y].begin(),
                                        detached_[y].end());
    const std::uint64_t own = y == kNotifierSite ? 0 : clock_.from(y);
    for (std::uint64_t seq = shared_after(y) + 1; seq <= clock_.total();
         ++seq) {
      const NotifierHbEntry& e = logged(seq);
      out.push_back(BridgeEntry{e.id, seq - own, e.executed});
    }
  }
  s.enqueued = enqueued_;
  s.acked = acked_;
  s.active = active_;
  s.hb_collected = log_base_.total();
  return s;
}

NotifierSite::NotifierSite(const State& state, const EngineConfig& cfg,
                           SendFn send_to_client, EngineObserver* observer)
    : num_sites_(state.num_sites),
      cfg_(cfg),
      broadcast_(stamp_and_send(std::move(send_to_client), cfg.stamp_mode)),
      observer_(observer),
      doc_(state.document),
      clock_(state.sv0),
      vc_(state.vc),
      log_base_(state.sv0),
      cursor_(num_sites_ + 1, clock_.total()),
      enqueued_(state.enqueued),
      acked_(state.acked),
      active_(state.active) {
  CCVC_CHECK(state.outgoing.size() == num_sites_ + 1 &&
             state.active.size() == num_sites_ + 1 &&
             state.acked.size() == num_sites_ + 1 &&
             state.enqueued.size() == num_sites_ + 1);
  // Every restored queue is detached.  SV_0 before the log front is SV_0
  // less the logged ops, and the stamps must be the ones it implies.
  std::vector<std::uint64_t> base(num_sites_ + 1);
  for (SiteId j = 1; j <= num_sites_; ++j) base[j] = clock_.from(j);
  for (const StampedNotifierHbEntry& e : state.hb) {
    CCVC_CHECK(e.origin >= 1 && e.origin < e.stamp.size() &&
               e.stamp.size() <= num_sites_ + 1 && base[e.origin] > 0);
    --base[e.origin];
    log_.push_back(NotifierHbEntry{e.id, e.origin,
                                   static_cast<SiteId>(e.stamp.size() - 1),
                                   e.executed});
  }
  log_base_ = clocks::NotifierClock(clocks::VersionVector(std::move(base)));
  for (SiteId y = 0; y <= num_sites_; ++y) {
    CCVC_CHECK(acked_[y] <= enqueued_[y]);
    detached_.emplace_back(state.outgoing[y].begin(), state.outgoing[y].end());
  }
  CCVC_CHECK_MSG(this->state() == state,
                 "HB_0 stamps do not follow the commit order");
}

NotifierSite::JoinTicket NotifierSite::add_site() {
  // A headline benefit of the compressed scheme: membership can change
  // freely because no client's clock mentions N.  Full-vector stamps
  // would need a coordinated clock resize at every site (and every
  // in-flight message), so that mode does not support joins.
  CCVC_CHECK_MSG(cfg_.stamp_mode == StampMode::kCompressed,
                 "dynamic membership requires the compressed scheme");
  const SiteId id = clock_.add_site();
  num_sites_ = clock_.num_sites();
  log_base_.add_site();
  detached_.emplace_back();
  cursor_.push_back(clock_.total());
  // The snapshot hands over every operation executed so far, so the
  // send counter — and eq. (1)'s Σ_{j≠id} SV_0[j] — starts at total().
  enqueued_.push_back(clock_.total());
  // Likewise GC may treat everything up to the snapshot as acknowledged.
  acked_.push_back(clock_.total());
  active_.push_back(true);
  if (observer_) observer_->on_client_join(id);
  return JoinTicket{id, doc_.text(), clock_.total(), vc_};
}

NotifierSite::ResyncTicket NotifierSite::resync_site(SiteId site) {
  CCVC_CHECK_MSG(cfg_.stamp_mode == StampMode::kCompressed,
                 "client resync requires the compressed scheme");
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  CCVC_CHECK_MSG(active_[site], "cannot resync a departed site");
  // The snapshot embodies everything executed at site 0 *except* the
  // site's own operations (eq. (1) excludes them from its stamp), so the
  // send counter restarts at exactly Σ_{j≠site} SV_0[j] — preserving the
  // eq. (1) invariant checked on every broadcast.
  detached_[site].clear();
  cursor_[site] = clock_.total();
  const std::uint64_t embodied = clock_.total() - clock_.from(site);
  enqueued_[site] = embodied;
  acked_[site] = embodied;
  if (observer_) observer_->on_client_resync(site);
  return ResyncTicket{doc_.text(), embodied, clock_.from(site)};
}

void NotifierSite::remove_site(SiteId site) {
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  CCVC_CHECK_MSG(active_[site], "site already departed");
  // The bridge queue is kept: messages the site sent before departing
  // may still be in flight and must transform against it.  Detached
  // whole, it stops growing: later log entries are not its.
  detach(site, 0);
  active_[site] = false;
  if (cfg_.gc_history) gc_history();  // its acks no longer gate GC
}

bool NotifierSite::is_active(SiteId site) const {
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  return active_[site];
}

std::size_t NotifierSite::outgoing_count(SiteId client) const {
  CCVC_CHECK(client >= 1 && client <= num_sites_);
  return detached_[client].size() + (clock_.total() - shared_after(client));
}

std::uint64_t NotifierSite::shared_after(SiteId y) const {
  const bool shares = cfg_.transform && y != kNotifierSite && active_[y];
  return shares ? cursor_[y] : clock_.total();
}

void NotifierSite::detach(SiteId y, std::uint64_t acked) {
  // The suffix holds none of y's ops (each moves y's cursor to the end),
  // so SV_0[y] is constant along it, and an entry's bridge index — Σ_{j≠y}
  // SV_0[j] when it was sent — is its commit sequence less SV_0[y] now.
  const std::uint64_t own = clock_.from(y);
  std::uint64_t seq = std::max(shared_after(y), acked + own);
  CCVC_DCHECK(seq >= log_base_.total() && seq <= clock_.total());
  while (seq < clock_.total()) {
    const NotifierHbEntry& e = logged(++seq);
    detached_[y].push_back(BridgeEntry{e.id, seq - own, e.executed});
  }
  cursor_[y] = clock_.total();
}

void NotifierSite::on_client_message(SiteId from, const net::Payload& bytes) {
  apply_uplink(parse_uplink(from, bytes, cfg_));
}

NotifierSite::ParsedUplink NotifierSite::parse_uplink(
    SiteId from, const net::Payload& bytes, const EngineConfig& cfg) {
  ParsedUplink parsed;
  parsed.from = from;
  if (is_leave_msg(bytes)) {
    // In-band departure: FIFO guarantees every operation the site sent
    // beforehand has already been processed, so dropping it from the
    // acknowledgement bookkeeping is sound from here on.
    CCVC_CHECK_MSG(decode_leave(bytes) == from,
                   "leave arrived on the wrong channel");
    parsed.leave = true;
    return parsed;
  }
  parsed.msg = decode_client_msg(bytes, cfg.stamp_mode);
  CCVC_CHECK_MSG(parsed.msg.id.site == from,
                 "message arrived on the wrong channel");
  return parsed;
}

void NotifierSite::apply_uplink(ParsedUplink parsed) {
  const SiteId from = parsed.from;
  CCVC_CHECK(from >= 1 && from <= num_sites_);
  if (parsed.leave) {
    remove_site(from);
    return;
  }
  ClientMsg msg = std::move(parsed.msg);

  // §4.2 — concurrency check of the incoming Oa (2-element stamp)
  // against every buffered operation (full-vector stamp), formula (7).
  std::vector<OpId> formula_concurrent;
  if (cfg_.log_verdicts) {
    // Walking the log from its base gives each entry's stamp: Σ is its
    // commit sequence, T[from] counts from's ops up to it.  The whole
    // vector is built only where a full-vector check or the observer
    // reads it.
    const bool whole =
        cfg_.stamp_mode == StampMode::kFullVector || observer_ != nullptr;
    clocks::VersionVector sv;
    if (whole) sv = log_base_.full();
    std::uint64_t sum = log_base_.total();
    std::uint64_t at_from = log_base_.from(from);
    for (const auto& e : log_) {
      ++sum;
      if (e.origin == from) ++at_from;
      if (whole) sv.tick(e.origin);
      // Same-origin entries are causally prior by FIFO in both modes —
      // the client knows its own operations, so their center re-issues
      // O' never need transformation there (the x = y exclusion of
      // formula (7)).
      const bool conc =
          (cfg_.stamp_mode == StampMode::kCompressed)
              ? clocks::concurrent_at_notifier_o1(msg.stamp.csv, from, sum,
                                                  at_from, e.origin)
              : (e.origin != from && msg.stamp.full.concurrent_with(sv));
      if (conc) formula_concurrent.push_back(e.id);
      if (observer_) {
        Verdict v;
        v.at_site = kNotifierSite;
        v.incoming = EventKey{msg.id, false};
        v.buffered = EventKey{e.id, true};
        v.concurrent = conc;
        v.t_incoming = msg.stamp.csv;
        v.origin_incoming = from;
        v.t_buffered_full = stamp_of(e, sv);
        v.origin_buffered = e.origin;
        observer_->on_verdict(v);
      }
    }
  }

  // Acknowledgement: T[1] of a client stamp counts the center
  // operations the client had executed when it generated Oa (§3.3).  In
  // full-vector mode the same count is Σ over the *client* components
  // other than the sender's: component j of a client stamp is SV_0[j]
  // as of the last center message it received (component 0 counts the
  // center's own issue events and must not be included).  An ack covers
  // at most what was sent, so history GC never collects a log entry a
  // queue still shares.
  const std::uint64_t ack = std::min(
      enqueued_[from],
      (cfg_.stamp_mode == StampMode::kCompressed)
          ? msg.stamp.csv.from_center
          : msg.stamp.full.sum() - msg.stamp.full[kNotifierSite] -
                msg.stamp.full[from]);
  acked_[from] = std::max(acked_[from], ack);

  ot::OpList incoming = std::move(msg.ops);
  if (cfg_.transform) {
    // Everything this client has seen leaves its bridge queue, and the
    // rest leaves the log: the transforms below rewrite all of it.
    auto& bridge = detached_[from];
    while (!bridge.empty() && bridge.front().index <= ack) {
      bridge.pop_front();
    }
    detach(from, ack);

    if (cfg_.log_verdicts && cfg_.check_fidelity) {
      std::vector<OpId> control;
      control.reserve(bridge.size());
      for (const auto& b : bridge) control.push_back(b.id);
      CCVC_CHECK_MSG(formula_concurrent == control,
                     "formula (7) disagrees with transformation control");
    }

    // Transform Oa against the concurrent operations, symmetrically
    // updating their bridge forms in place (they must end in the post-Oa
    // context for the next message from this client).
    CCVC_METRIC_COUNT("engine.notifier.transforms", bridge.size());
    CCVC_METRIC_HIST("engine.notifier.transform_path_len", bridge.size());
    for (auto& b : bridge) ot::transform_in_place(incoming, b.ops);
    doc_.apply(incoming, doc::ApplyMode::kStrict);
  } else {
    doc_.apply(incoming, doc::ApplyMode::kClamped);
  }

  // §3.2: SV_0[from] += 1.  The executed (transformed) form O' counts as
  // an operation generated at site 0 (§5).
  CCVC_METRIC_COUNT("engine.notifier.ops_executed", 1);
  clock_.on_op_from(from);
  if (cfg_.stamp_mode == StampMode::kFullVector) {
    vc_.merge(msg.stamp.full);
    vc_.tick(kNotifierSite);
  }

  // §3.3: buffer O' in HB_0, the commit log, where every other client's
  // queue shares it; its full-vector stamp is SV_0 now.
  log_.push_back(NotifierHbEntry{msg.id, from,
                                 static_cast<SiteId>(num_sites_),
                                 std::move(incoming)});
  cursor_[from] = clock_.total();
  const ot::OpList& executed = log_.back().executed;
  if (observer_) observer_->on_center_execute(msg.id, executed);

  // Broadcast O' to every other (active) client, stamped per
  // destination with eq. (1)-(2) — the only per-destination part, so
  // the op is encoded once.  Stamp sizes are tallied in plain integers
  // and recorded once per broadcast.
  const CenterMsgEncoder center_msg(msg.id, executed);
  CCVC_METRIC_TALLY(stamp_sizes, "engine.wire.stamp_bytes");
  Stamp stamp;
  stamp.full = vc_;  // empty in compressed mode
  std::uint64_t sends = 0;
  for (SiteId dest = 1; dest <= num_sites_; ++dest) {
    if (dest == from || !active_[dest]) continue;
    ++enqueued_[dest];
    stamp.csv = clock_.stamp_for(dest);
    // Eq. (1) invariant: the per-destination send counter *is*
    // Σ_{j≠dest} SV_0[j].
    CCVC_CHECK(stamp.csv.from_center == enqueued_[dest]);
    const std::size_t stamp_bytes = stamp_wire_size(stamp, cfg_.stamp_mode);
    stamp_sizes.add(stamp_bytes);
    if (observer_) {
      observer_->on_wire(kNotifierSite, dest,
                         center_msg.stamped_size(stamp, cfg_.stamp_mode),
                         stamp_bytes);
    }
    broadcast_(dest, center_msg, stamp);
    ++sends;
  }
  stamp_sizes.record();
  if (sends > 0) CCVC_METRIC_COUNT("engine.notifier.broadcasts", sends);

  if (cfg_.gc_history) gc_history();
}

void NotifierSite::gc_history() {
  // A buffered entry Ob can only be flagged concurrent by formula (7)
  // for a future op from site x ≠ origin(Ob) whose T[1] is at least
  // acked_[x] (stamps are FIFO-monotone).  Once
  //     Σ_{j≠x} T_Ob[j]  <=  acked_[x]     for every such x,
  // no future check can select Ob, so it is dead.  Both sides of the
  // inequality are monotone along HB order, so dead entries form a
  // prefix — collect from the front.  The front entry's stamp is
  // log_base_ plus 1 at its origin: Σ = total() + 1, and T_Ob[x] is
  // log_base_'s for every x ≠ origin.
  const auto front_dead = [this] {
    const clocks::VersionVector& base = log_base_.full();
    const std::uint64_t sum = log_base_.total() + 1;
    for (SiteId x = 1; x <= num_sites_; ++x) {
      if (x == log_.front().origin || !active_[x]) continue;
      if (sum - base[x] > acked_[x]) return false;
    }
    return true;
  };
  while (!log_.empty() && front_dead()) {
    log_base_.on_op_from(log_.front().origin);
    log_.pop_front();
  }
}

}  // namespace ccvc::engine
