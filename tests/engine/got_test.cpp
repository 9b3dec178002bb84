// GOT reference vs the bridge control.
//
// The production engine realizes §2.3 with the bridge algorithm; GOT
// [14] is the historical control the paper cites.  Shadow-executing GOT
// at the notifier on live sessions must reproduce the bridge's executed
// forms wherever GOT is defined (its ET partiality and the one lossy ET
// boundary are the documented exceptions).
#include <gtest/gtest.h>

#include "clocks/compressed_sv.hpp"
#include "engine/got.hpp"
#include "engine/session.hpp"
#include "ot/transform.hpp"
#include "sim/workload.hpp"

namespace ccvc::engine {
namespace {

TEST(Got, NoConcurrencyExecutesAsIs) {
  std::vector<GotHbItem> hb;
  hb.push_back(GotHbItem{ot::make_insert(0, "ab", 1), false});
  const ot::OpList o = ot::make_insert(1, "x", 2);
  const auto out = got_transform(hb, o);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, o);
}

TEST(Got, PureConcurrentSuffixIsInclusionFold) {
  // Suffix entirely concurrent: GOT degenerates to LIT — compare
  // directly.
  std::vector<GotHbItem> hb;
  hb.push_back(GotHbItem{ot::make_insert(0, "abc", 1), false});
  hb.push_back(GotHbItem{ot::make_delete(1, 1, 2), true});
  hb.push_back(GotHbItem{ot::make_insert(2, "Z", 3), true});
  const ot::OpList o = ot::make_insert(3, "!", 4);

  ot::OpList expect = o;
  expect = ot::include_list(expect, hb[1].executed);
  expect = ot::include_list(expect, hb[2].executed);
  const auto out = got_transform(hb, o);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, expect);
}

TEST(Got, InterleavedCausalOpIsExcludedThenReincluded) {
  // HB: concurrent C at index 0, then causal L (the sender's own op).
  // O was generated knowing L but not C; GOT must move O across C while
  // respecting that L's executed form already absorbed C.
  //   base doc: "0123456789"
  //   C = Ins("CC", 2)  (concurrent)
  //   L = Ins("LL", 6) as generated; executed after C: Ins("LL", 8)
  //   O = Ins("!", 4) in sender context "012345LL6789" (left of L).
  std::vector<GotHbItem> hb;
  hb.push_back(GotHbItem{ot::make_insert(2, "CC", 2), true});
  hb.push_back(GotHbItem{ot::make_insert(8, "LL", 1), false});
  const ot::OpList o = ot::make_insert(4, "!", 1);

  const auto out = got_transform(hb, o);
  ASSERT_TRUE(out.has_value());
  // Full context "01CC2345LL6789": between '3' and '4' is position 6
  // (sender pos 4, shifted +2 by the concurrent C).
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].pos, 6u);
}

TEST(Got, DependentInsertInsideOwnTextIsUndefined) {
  // O inserts inside the text of its own causal predecessor L — the
  // exclusion has no representation; GOT reports undefined (the
  // historical reason REDUCE ops carried recovery information).
  std::vector<GotHbItem> hb;
  hb.push_back(GotHbItem{ot::make_insert(2, "CC", 2), true});
  hb.push_back(GotHbItem{ot::make_insert(8, "LL", 1), false});
  const ot::OpList o = ot::make_insert(7, "!", 1);  // between the two Ls
  EXPECT_FALSE(got_transform(hb, o).has_value());
}

/// Effect-equality: captured delete text is an artifact of application
/// (the bridge captures at apply time, a prediction cannot), and
/// identity primitives have no effect — compare what the ops *do*.
bool same_effect(const ot::OpList& a, const ot::OpList& b) {
  auto essential = [](const ot::OpList& ops) {
    std::vector<std::tuple<ot::OpKind, std::size_t, std::size_t,
                           std::string>>
        out;
    for (const auto& p : ops) {
      if (p.is_identity()) continue;
      out.emplace_back(p.kind, p.pos,
                       p.kind == ot::OpKind::kDelete ? p.count : 0,
                       p.kind == ot::OpKind::kInsert ? p.text : "");
    }
    return out;
  };
  return essential(a) == essential(b);
}

struct ShadowTally {
  std::size_t checked = 0;
  std::size_t agreed = 0;
  std::size_t undefined = 0;
  std::size_t diverged = 0;
  bool converged = false;
};

/// Runs a session with a GOT shadow checker on every uplink.
ShadowTally run_shadowed(std::uint64_t seed, double insert_prob) {
  StarSessionConfig cfg;
  cfg.num_sites = 4;
  cfg.initial_doc = "the got cross check document body";
  cfg.uplink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.downlink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.seed = seed;

  StarSession session(cfg);
  ShadowTally tally;

  // Interpose on every uplink: compute the GOT prediction from the
  // notifier's pre-arrival history, deliver, compare with what the
  // bridge control actually executed.
  net::Network& net = session.network();
  for (SiteId i = 1; i <= cfg.num_sites; ++i) {
    net.channel(i, kNotifierSite)
        .set_receiver([&session, &tally, i](const net::Payload& bytes) {
          if (!is_leave_msg(bytes)) {
            const ClientMsg msg =
                decode_client_msg(bytes, StampMode::kCompressed);
            // Build the GOT view of HB_0 with formula-(7) flags.
            std::vector<GotHbItem> hb;
            for (const auto& e : session.notifier().state().hb) {
              const bool conc = clocks::concurrent_at_notifier_o1(
                  msg.stamp.csv, i, e.stamp.sum(), e.stamp[i],
                  e.origin);
              hb.push_back(GotHbItem{e.executed, conc});
            }
            const auto predicted = got_transform(hb, msg.ops);
            session.notifier().on_client_message(i, bytes);
            ++tally.checked;
            if (!predicted.has_value()) {
              ++tally.undefined;
            } else if (same_effect(
                           *predicted,
                           session.notifier().history().back().executed)) {
              ++tally.agreed;
            } else {
              ++tally.diverged;
            }
            return;
          }
          session.notifier().on_client_message(i, bytes);
        });
  }

  sim::WorkloadConfig w;
  w.ops_per_site = 30;
  w.mean_think_ms = 25.0;
  w.hotspot_prob = 0.4;
  w.insert_prob = insert_prob;
  w.seed = seed + 9;
  sim::StarWorkload workload(session, w);
  workload.start();
  session.run_to_quiescence();
  tally.converged = session.converged();
  return tally;
}

class GotShadowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GotShadowSweep, NearExactOnInsertOnlyWorkloads) {
  // With inserts only, each single exclusion is exact wherever defined;
  // what remains is rare path-dependence in GOT's exclude/re-include
  // chain (the two sides express the same document state through
  // different operation orders).  Divergence must be marginal.
  const ShadowTally t = run_shadowed(GetParam(), /*insert_prob=*/1.0);
  EXPECT_TRUE(t.converged);
  EXPECT_EQ(t.checked, 120u);
  EXPECT_EQ(t.agreed + t.undefined + t.diverged, t.checked);
  EXPECT_LE(t.diverged, t.checked / 20);  // ≤ 5%
  // Undefined cases (inserts landing inside concurrent peers' text) are
  // common under hotspot editing; defined cases dominate regardless.
  EXPECT_GT(t.agreed, t.checked * 2 / 3) << "undefined=" << t.undefined;
}

TEST_P(GotShadowSweep, MixedWorkloadsQuantifyEtInformationLoss) {
  // With deletes in play, naive ET hits its documented information-loss
  // boundary and GOT can drift off the (correct) bridge result — the
  // historical reason REDUCE operations carried recovery information.
  // The bridge remains authoritative (the session still converges);
  // here we quantify GOT's deficiency rather than hide it.
  const ShadowTally t = run_shadowed(GetParam() ^ 0xABCDu,
                                     /*insert_prob=*/0.7);
  EXPECT_TRUE(t.converged);  // production control is unaffected
  EXPECT_EQ(t.agreed + t.undefined + t.diverged, t.checked);
  EXPECT_GT(t.agreed, t.checked / 2);          // agreement dominates
  EXPECT_LT(t.diverged, t.checked / 3);        // loss is the minority
}

INSTANTIATE_TEST_SUITE_P(Seeds, GotShadowSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace ccvc::engine
