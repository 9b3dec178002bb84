// The notifier's encode-once fan-out and its shared bridge queues.
//
// A broadcast encodes O' once and splices each destination's eq. (1)-(2)
// stamp into it; the bytes every destination receives must be exactly
// the CenterMsg a per-destination encode would produce.  The bridge
// queues share O' through the notifier's commit log, and a transform
// that rewrites one queue's entry must leave every other queue's copy
// untouched — in the live queues and in the checkpointed State alike.
// A checkpoint materializes the log's stamps and queues, and a restore
// rebuilds the log from them.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/notifier_site.hpp"
#include "engine/snapshot.hpp"
#include "ot/transform.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {
namespace {

constexpr const char* kDoc = "shared fan-out text";

struct Sent {
  SiteId dest = 0;
  net::Payload bytes;

  friend bool operator==(const Sent&, const Sent&) = default;
};

/// A star wired by hand: every message waits in a queue until the test
/// delivers it, so the interleaving is exactly the one each test spells
/// out.
class Star {
 public:
  Star(std::size_t n, const EngineConfig& cfg)
      : uplink_(n + 1), downlink_(n + 1) {
    notifier_ = std::make_unique<NotifierSite>(
        n, kDoc, cfg, [this](SiteId dest, net::Payload bytes) {
          downlink_[dest].push_back(bytes);
          sent_.push_back(Sent{dest, std::move(bytes)});
        });
    for (SiteId i = 1; i <= n; ++i) {
      clients_.push_back(std::make_unique<ClientSite>(
          i, n, kDoc, cfg, [this, i](net::Payload bytes) {
            uplink_[i].push_back(std::move(bytes));
          }));
    }
  }
  Star(const Star&) = delete;
  Star& operator=(const Star&) = delete;

  /// Admits a late joiner at the notifier and starts its client from
  /// the join snapshot.
  SiteId join(const EngineConfig& cfg) {
    const NotifierSite::JoinTicket t = notifier_->add_site();
    uplink_.emplace_back();
    downlink_.emplace_back();
    clients_.push_back(std::make_unique<ClientSite>(
        t.site, t.site, t.document, t.ops_embodied, cfg,
        [this, i = t.site](net::Payload bytes) {
          uplink_[i].push_back(std::move(bytes));
        }));
    return t.site;
  }

  /// Crash-restarts client i: its queued messages are lost, and it
  /// restarts from the notifier's resync snapshot.
  void restart(SiteId i, const EngineConfig& cfg) {
    const NotifierSite::ResyncTicket t = notifier_->resync_site(i);
    uplink_[i].clear();
    downlink_[i].clear();
    ClientSite::State state;
    state.id = i;
    state.num_sites = notifier_->num_sites();
    state.document = t.document;
    state.sv = clocks::CompressedSv{t.ops_embodied, t.own_ops};
    state.max_ack = t.own_ops;
    clients_[i - 1] = std::make_unique<ClientSite>(
        state, cfg, [this, i](net::Payload bytes) {
          uplink_[i].push_back(std::move(bytes));
        });
  }

  NotifierSite& notifier() { return *notifier_; }
  ClientSite& client(SiteId i) { return *clients_[i - 1]; }
  std::size_t uplink_pending(SiteId i) const { return uplink_[i].size(); }
  const net::Payload& peek_uplink(SiteId i) const { return uplink_[i].front(); }

  /// Hands client i's oldest queued message to the notifier and returns
  /// what the notifier broadcast in response.
  std::vector<Sent> submit(SiteId i) {
    net::Payload bytes = std::move(uplink_[i].front());
    uplink_[i].pop_front();
    sent_.clear();
    notifier_->on_client_message(i, bytes);
    return std::move(sent_);
  }

  /// Delivers every queued downlink message to client i.
  void deliver(SiteId i) {
    while (!downlink_[i].empty()) {
      client(i).on_center_message(downlink_[i].front());
      downlink_[i].pop_front();
    }
  }

 private:
  std::unique_ptr<NotifierSite> notifier_;
  std::vector<std::unique_ptr<ClientSite>> clients_;
  std::vector<std::deque<net::Payload>> uplink_;    // [site]
  std::vector<std::deque<net::Payload>> downlink_;  // [site]
  std::vector<Sent> sent_;
};

/// The per-destination CenterMsg encoding, written out field by field —
/// an encoder independent of CenterMsgEncoder's head/body split.
net::Payload reference_encode(const OpId& id, const ot::OpList& ops,
                              const Stamp& stamp, StampMode mode) {
  util::ByteSink sink;
  sink.put_u8(0xC2);
  sink.put_uvarint(id.site);
  sink.put_uvarint(id.seq);
  if (mode == StampMode::kCompressed) {
    stamp.csv.encode(sink);
  } else {
    stamp.full.encode(sink);
  }
  ot::encode(ot::coalesce(ops), sink);
  return sink.bytes();
}

/// Checks one broadcast: one message per other active site, each the
/// encoding of the notifier's latest executed op under that
/// destination's eq. (1)-(2) stamp.
void expect_broadcast_bytes(NotifierSite& notifier, SiteId from,
                            const std::vector<Sent>& sent, StampMode mode) {
  const NotifierHbEntry& executed = notifier.history().back();
  ASSERT_EQ(executed.origin, from);
  ASSERT_EQ(sent.size(), notifier.num_sites() - 1);
  Stamp stamp;
  stamp.full = notifier.state().vc;
  SiteId dest = 1;
  for (const Sent& s : sent) {
    if (dest == from) ++dest;
    ASSERT_EQ(s.dest, dest);
    stamp.csv = notifier.state_vector().stamp_for(dest);
    EXPECT_EQ(s.bytes,
              encode(CenterMsg{executed.id, executed.executed, stamp}, mode))
        << "dest " << dest;
    EXPECT_EQ(s.bytes,
              reference_encode(executed.id, executed.executed, stamp, mode))
        << "dest " << dest;
    ++dest;
  }
}

TEST(Fanout, EveryDestinationGetsItsOwnStampOnTheSharedBody) {
  constexpr std::size_t kSites = 5;
  for (StampMode mode : {StampMode::kCompressed, StampMode::kFullVector}) {
    for (bool transform : {true, false}) {
      SCOPED_TRACE(std::string(to_string(mode)) +
                   (transform ? " transform" : " as-is"));
      EngineConfig cfg;
      cfg.stamp_mode = mode;
      cfg.transform = transform;
      Star star(kSites, cfg);
      for (std::size_t round = 0; round < 3; ++round) {
        // Every site edits concurrently, then the notifier serializes
        // them in an order unrelated to site ids.
        for (SiteId i = 1; i <= kSites; ++i) {
          ClientSite& c = star.client(i);
          const std::size_t pos = (i * 3 + round) % (c.text().size() + 1);
          c.insert(pos, std::string(1 + round, static_cast<char>('a' + i)));
          if (i % 2 == 0 && c.text().size() > 4) c.erase(1, 2);
        }
        for (SiteId i : {3u, 1u, 5u, 2u, 4u}) {
          while (star.uplink_pending(i) > 0) {
            const std::vector<Sent> sent = star.submit(i);
            expect_broadcast_bytes(star.notifier(), i, sent, mode);
          }
        }
        for (SiteId i = 1; i <= kSites; ++i) star.deliver(i);
      }
      if (transform) {
        for (SiteId i = 1; i <= kSites; ++i) {
          EXPECT_EQ(star.client(i).text(), star.notifier().text());
        }
      }
    }
  }
}

TEST(Fanout, TransformDetachesOnlyTheRewrittenQueue) {
  const EngineConfig cfg;
  Star star(4, cfg);
  const auto uplink_ops = [&](SiteId i) {
    return decode_client_msg(star.peek_uplink(i), cfg.stamp_mode).ops;
  };
  // A from site 1 lands in the bridge queues of sites 2, 3 and 4.
  star.client(1).insert(10, "AAA");
  star.submit(1);
  const ot::OpList a = star.notifier().history().back().executed;

  // B from site 2, concurrent with A, transforms against site 2's copy.
  star.client(2).insert(0, "B");
  const ot::OpList a_after_b = ot::transform(uplink_ops(2), a).second;
  ASSERT_NE(a_after_b, a);
  star.submit(2);
  const ot::OpList b = star.notifier().history().back().executed;

  // C from site 2 (still without A) rewrites site 2's now-unshared copy.
  star.client(2).insert(0, "C");
  const ot::OpList a_after_bc = ot::transform(uplink_ops(2), a_after_b).second;
  star.submit(2);
  const ot::OpList c = star.notifier().history().back().executed;

  const NotifierSite::State s = star.notifier().state();
  ASSERT_EQ(s.outgoing[2].size(), 1u);
  EXPECT_EQ(s.outgoing[2][0].ops, a_after_bc);
  for (SiteId other : {3u, 4u}) {
    // A, then the two broadcasts from site 2.
    ASSERT_EQ(s.outgoing[other].size(), 3u) << "site " << other;
    EXPECT_EQ(s.outgoing[other][0].ops, a) << "site " << other;
    EXPECT_EQ(s.outgoing[other][1].ops, b) << "site " << other;
    EXPECT_EQ(s.outgoing[other][2].ops, c) << "site " << other;
  }
  ASSERT_EQ(s.outgoing[1].size(), 2u);
  EXPECT_EQ(s.outgoing[1][0].ops, b);

  // Site 3's next op rewrites its own copies; site 4 keeps the originals.
  star.client(3).insert(0, "D");
  star.submit(3);
  const NotifierSite::State t = star.notifier().state();
  EXPECT_NE(t.outgoing[3][0].ops, a);
  EXPECT_EQ(t.outgoing[4][0].ops, a);
  EXPECT_EQ(t.outgoing[4][1].ops, b);
  EXPECT_EQ(t.outgoing[2][0].ops, a_after_bc);
}

TEST(Fanout, CheckpointRoundTripsSharedQueues) {
  const EngineConfig cfg;
  Star star(5, cfg);
  // Three concurrent broadcasts fill the queues with shared entries;
  // site 2's op detaches its own copies by transforming against them.
  star.client(1).insert(3, "one");
  star.client(4).insert(7, "four");
  star.client(2).insert(0, "two");
  star.submit(1);
  star.submit(4);
  star.submit(2);
  const NotifierSite::State before = star.notifier().state();
  EXPECT_EQ(load_notifier_checkpoint(save_checkpoint(star.notifier())),
            before);
  EXPECT_EQ(NotifierSite(before, cfg, [](SiteId, net::Payload) {}).state(),
            before);

  // Resync empties site 3's queue and departure freezes site 4's, while
  // site 5's queue still shares every one of those entries.
  star.notifier().resync_site(3);
  star.notifier().remove_site(4);
  const NotifierSite::State dropped = star.notifier().state();
  EXPECT_TRUE(dropped.outgoing[3].empty());
  EXPECT_EQ(dropped.outgoing[4], before.outgoing[4]);
  EXPECT_EQ(dropped.outgoing[5], before.outgoing[5]);

  // Site 5's op transforms against its whole (shared) queue, once in a
  // restored copy and once live: both must send and end up the same,
  // and site 4's frozen queue keeps the untransformed forms.
  std::vector<Sent> restored_sent;
  NotifierSite restored(
      load_notifier_checkpoint(save_checkpoint(star.notifier())), cfg,
      [&](SiteId dest, net::Payload bytes) {
        restored_sent.push_back(Sent{dest, std::move(bytes)});
      });
  EXPECT_EQ(restored.state(), dropped);
  star.client(5).insert(2, "five");
  restored.on_client_message(5, star.peek_uplink(5));
  EXPECT_EQ(restored_sent, star.submit(5));
  const NotifierSite::State after = star.notifier().state();
  EXPECT_EQ(restored.state(), after);
  EXPECT_EQ(after.outgoing[4], before.outgoing[4]);
  EXPECT_NE(after.outgoing[5], before.outgoing[5]);
  EXPECT_EQ(load_notifier_checkpoint(save_checkpoint(star.notifier())), after);
}

/// Checkpoints the notifier and restores it, then hands client `next`'s
/// queued op to both copies: they must send the same bytes and end in
/// the same state.
void expect_restores(Star& star, const EngineConfig& cfg, SiteId next) {
  const NotifierSite::State s = star.notifier().state();
  ASSERT_EQ(load_notifier_checkpoint(save_checkpoint(star.notifier())), s);
  std::vector<Sent> sent;
  NotifierSite restored(s, cfg, [&](SiteId dest, net::Payload bytes) {
    sent.push_back(Sent{dest, std::move(bytes)});
  });
  ASSERT_EQ(restored.state(), s);
  restored.on_client_message(next, star.peek_uplink(next));
  EXPECT_EQ(sent, star.submit(next));
  EXPECT_EQ(restored.state(), star.notifier().state());
}

/// Client i's queue as the State lists it: (id, bridge index) pairs.
std::vector<std::pair<OpId, std::uint64_t>> queue_of(
    const NotifierSite::State& s, SiteId i) {
  std::vector<std::pair<OpId, std::uint64_t>> out;
  for (const auto& b : s.outgoing[i]) out.emplace_back(b.id, b.index);
  return out;
}

TEST(Fanout, CheckpointRoundTripsTheLog) {
  EngineConfig cfg;
  cfg.gc_history = true;
  Star star(3, cfg);
  const auto deliver_all = [&] {
    for (SiteId i = 1; i <= star.notifier().num_sites(); ++i) {
      if (star.notifier().is_active(i)) star.deliver(i);
    }
  };

  // A join between two broadcasts: the first is stamped among 3 sites,
  // the second among 4.  The joiner's queue starts after the first.
  star.client(1).insert(0, "one ");
  star.submit(1);
  const SiteId joiner = star.join(cfg);
  const OpId o2 = star.client(2).insert(4, "two ");
  star.submit(2);
  star.client(joiner).insert(0, "four ");
  NotifierSite::State s = star.notifier().state();
  ASSERT_EQ(s.hb.size(), 2u);
  EXPECT_EQ(s.hb[0].stamp.str(), "[0,1,0,0]");
  EXPECT_EQ(s.hb[1].stamp.str(), "[0,1,1,0,0]");
  EXPECT_EQ(queue_of(s, joiner), (std::vector<std::pair<OpId, std::uint64_t>>{
                                     {o2, 2}}));
  expect_restores(star, cfg, joiner);

  // GC with a partially trimmed log: site 3 has seen the first three
  // ops, nobody else has spoken since, so only their prefix can go.
  deliver_all();
  star.client(3).insert(0, "three ");
  star.submit(3);
  for (SiteId i : {1u, 2u, 4u}) {
    star.client(i).insert(1, "x");
    star.submit(i);
  }
  star.client(1).insert(2, "y");
  s = star.notifier().state();
  ASSERT_GT(s.hb_collected, 0u);
  ASSERT_FALSE(s.hb.empty());
  for (std::size_t k = 0; k < s.hb.size(); ++k) {
    EXPECT_EQ(s.hb[k].stamp.sum(), s.hb_collected + k + 1) << "entry " << k;
  }
  EXPECT_EQ(s.hb.back().stamp, s.sv0);
  expect_restores(star, cfg, 1);

  // A departed site's queue freezes: later broadcasts skip it, and GC,
  // no longer waiting for its acks, trims the log past its entries.
  const auto frozen = star.notifier().state().outgoing[3];
  ASSERT_FALSE(frozen.empty());
  const std::uint64_t collected = star.notifier().hb_collected();
  star.notifier().remove_site(3);
  deliver_all();
  for (SiteId i : {1u, 2u}) {
    star.client(i).insert(0, "z");
    star.submit(i);
  }
  star.client(4).insert(0, "w");
  EXPECT_EQ(star.notifier().state().outgoing[3], frozen);
  expect_restores(star, cfg, 4);
  EXPECT_EQ(star.notifier().state().outgoing[3], frozen);
  EXPECT_GT(star.notifier().hb_collected(), collected);

  // Resync: site 2's queue restarts empty at the snapshot, then shares
  // the next broadcast under the next bridge index.
  star.restart(2, cfg);
  s = star.notifier().state();
  EXPECT_TRUE(s.outgoing[2].empty());
  const std::uint64_t embodied = s.enqueued[2];
  const OpId o5 = star.client(1).insert(0, "v");
  star.submit(1);
  star.client(2).insert(0, "u");
  s = star.notifier().state();
  EXPECT_EQ(queue_of(s, 2), (std::vector<std::pair<OpId, std::uint64_t>>{
                                {o5, embodied + 1}}));
  expect_restores(star, cfg, 2);
}

TEST(Fanout, RestoreRejectsStampsTheCommitOrderDoesNotImply) {
  const EngineConfig cfg;
  Star star(3, cfg);
  for (SiteId i : {1u, 2u, 3u}) {
    star.client(i).insert(0, "op");
    star.submit(i);
  }
  const NotifierSite::State good = star.notifier().state();
  ASSERT_EQ(good.hb.size(), 3u);
  const auto restore = [&](const NotifierSite::State& s) {
    return NotifierSite(s, cfg, [](SiteId, net::Payload) {}).state();
  };
  EXPECT_EQ(restore(good), good);

  // Entry 1 gains an op of site 3 it cannot have seen.
  NotifierSite::State bad = good;
  std::vector<std::uint64_t> v{0, 1, 1, 1};
  bad.hb[1].stamp = clocks::VersionVector(v);
  EXPECT_THROW(restore(bad), ContractViolation);

  // Entry 1 steps +1 at site 1, not at its origin (site 2).
  bad = good;
  v = {0, 2, 0, 0};
  bad.hb[1].stamp = clocks::VersionVector(v);
  EXPECT_THROW(restore(bad), ContractViolation);
}

}  // namespace
}  // namespace ccvc::engine
