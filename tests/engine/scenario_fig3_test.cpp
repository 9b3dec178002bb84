// Exact replay of the paper's §5 walkthrough (Fig. 3): every state
// vector, every propagation timestamp, every buffered timestamp, and all
// 21 concurrency verdicts, transliterated from the paper's text.
#include <gtest/gtest.h>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/scenario.hpp"

namespace ccvc::sim {
namespace {

using clocks::CompressedSv;
using clocks::HbSource;
using engine::EventKey;

class Fig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    mux.add(&recorder);
    mux.add(&oracle);
    session = std::make_unique<engine::StarSession>(fig_scenario_config(),
                                                    &mux);
    ids = schedule_fig_scenario(*session);
    session->run_to_quiescence();

    o1 = EventKey{ids.o1, false};
    o2 = EventKey{ids.o2, false};
    o3 = EventKey{ids.o3, false};
    o4 = EventKey{ids.o4, false};
    o1p = EventKey{ids.o1, true};
    o2p = EventKey{ids.o2, true};
    o3p = EventKey{ids.o3, true};
    o4p = EventKey{ids.o4, true};
  }

  ObserverMux mux;
  VerdictRecorder recorder;
  CausalityOracle oracle{3};
  std::unique_ptr<engine::StarSession> session;
  Fig3Ids ids;
  EventKey o1, o2, o3, o4, o1p, o2p, o3p, o4p;
};

TEST_F(Fig3Test, FinalStateVectors) {
  // Site 0 ends at SV_0 = [1,2,1] (paper: after buffering O'3).
  EXPECT_EQ(session->notifier().state_vector().full().str(), "[0,1,2,1]");
  // Site 1: received O'2, O'4, O'3; generated O1.
  EXPECT_EQ(session->client(1).state_vector(), (CompressedSv{3, 1}));
  // Site 2: received O'1, O'4; generated O2, O3.
  EXPECT_EQ(session->client(2).state_vector(), (CompressedSv{2, 2}));
  // Site 3: received O'2, O'1, O'3; generated O4.
  EXPECT_EQ(session->client(3).state_vector(), (CompressedSv{3, 1}));
}

TEST_F(Fig3Test, NotifierHistoryBufferTimestamps) {
  // §5: HB_0 = [O'2, O'1, O'4, O'3] timestamped [0,1,0], [1,1,0],
  // [1,1,1], [1,2,1] (site-indexed; our slot 0 is unused).  The
  // notifier derives them from the commit order; state() materializes
  // them.
  const auto hb = session->notifier().state().hb;
  ASSERT_EQ(hb.size(), 4u);
  EXPECT_EQ(hb[0].id, ids.o2);
  EXPECT_EQ(hb[0].stamp.str(), "[0,0,1,0]");
  EXPECT_EQ(hb[1].id, ids.o1);
  EXPECT_EQ(hb[1].stamp.str(), "[0,1,1,0]");
  EXPECT_EQ(hb[2].id, ids.o4);
  EXPECT_EQ(hb[2].stamp.str(), "[0,1,1,1]");
  EXPECT_EQ(hb[3].id, ids.o3);
  EXPECT_EQ(hb[3].stamp.str(), "[0,1,2,1]");
  // Origins recorded correctly.
  EXPECT_EQ(hb[0].origin, 2u);
  EXPECT_EQ(hb[1].origin, 1u);
  EXPECT_EQ(hb[2].origin, 3u);
  EXPECT_EQ(hb[3].origin, 2u);
}

TEST_F(Fig3Test, ClientHistoryBufferOrderAndTimestamps) {
  // Site 1: HB = [O1, O'2, O'4, O'3]; center stamps [1,0], [2,1], [3,1].
  {
    const auto& hb = session->client(1).history();
    ASSERT_EQ(hb.size(), 4u);
    EXPECT_EQ(hb[0].id, ids.o1);
    EXPECT_EQ(hb[0].source, HbSource::kLocal);
    EXPECT_EQ(hb[0].stamp, (CompressedSv{0, 1}));  // §5: T_O1 = [0,1]
    EXPECT_EQ(hb[1].id, ids.o2);
    EXPECT_EQ(hb[1].source, HbSource::kFromCenter);
    EXPECT_EQ(hb[1].stamp, (CompressedSv{1, 0}));  // §5: O'2 to site 1
    EXPECT_EQ(hb[2].id, ids.o4);
    EXPECT_EQ(hb[2].stamp, (CompressedSv{2, 1}));  // §5: O'4 to site 1
    EXPECT_EQ(hb[3].id, ids.o3);
    EXPECT_EQ(hb[3].stamp, (CompressedSv{3, 1}));  // §5: O'3 to site 1
  }
  // Site 2: HB = [O2, O'1, O3, O'4].
  {
    const auto& hb = session->client(2).history();
    ASSERT_EQ(hb.size(), 4u);
    EXPECT_EQ(hb[0].id, ids.o2);
    EXPECT_EQ(hb[0].stamp, (CompressedSv{0, 1}));  // §5: T_O2 = [0,1]
    EXPECT_EQ(hb[1].id, ids.o1);
    EXPECT_EQ(hb[1].stamp, (CompressedSv{1, 1}));  // §5: O'1 to site 2
    EXPECT_EQ(hb[2].id, ids.o3);
    EXPECT_EQ(hb[2].source, HbSource::kLocal);
    EXPECT_EQ(hb[2].stamp, (CompressedSv{1, 2}));  // §5: T_O3 = [1,2]
    EXPECT_EQ(hb[3].id, ids.o4);
    EXPECT_EQ(hb[3].stamp, (CompressedSv{2, 1}));  // §5: O'4 to site 2
  }
  // Site 3: HB = [O'2, O4, O'1, O'3].
  {
    const auto& hb = session->client(3).history();
    ASSERT_EQ(hb.size(), 4u);
    EXPECT_EQ(hb[0].id, ids.o2);
    EXPECT_EQ(hb[0].stamp, (CompressedSv{1, 0}));  // §5: O'2 to site 3
    EXPECT_EQ(hb[1].id, ids.o4);
    EXPECT_EQ(hb[1].source, HbSource::kLocal);
    EXPECT_EQ(hb[1].stamp, (CompressedSv{1, 1}));  // §5: T_O4 = [1,1]
    EXPECT_EQ(hb[2].id, ids.o1);
    EXPECT_EQ(hb[2].stamp, (CompressedSv{2, 0}));  // §5: O'1 to site 3
    EXPECT_EQ(hb[3].id, ids.o3);
    EXPECT_EQ(hb[3].stamp, (CompressedSv{3, 1}));  // §5: O'3 to site 3
  }
}

TEST_F(Fig3Test, AllTwentyOneVerdictsMatchSection5) {
  // Handling O2: site 1 checks O'2 against O1 -> concurrent.
  EXPECT_TRUE(recorder.verdict_of(1, o2p, o1));

  // Handling O1: site 0 checks O1 against O'2 -> concurrent.
  EXPECT_TRUE(recorder.verdict_of(0, o1, o2p));
  // Site 2 checks O'1 against O2 -> not concurrent.
  EXPECT_FALSE(recorder.verdict_of(2, o1p, o2));
  // Site 3 checks O'1 against O'2 (not) and O4 (concurrent).
  EXPECT_FALSE(recorder.verdict_of(3, o1p, o2p));
  EXPECT_TRUE(recorder.verdict_of(3, o1p, o4));

  // Handling O4: site 0 checks against O'2 (not) and O'1 (concurrent).
  EXPECT_FALSE(recorder.verdict_of(0, o4, o2p));
  EXPECT_TRUE(recorder.verdict_of(0, o4, o1p));
  // Site 1 checks O'4 against O1 and O'2 -> neither concurrent.
  EXPECT_FALSE(recorder.verdict_of(1, o4p, o1));
  EXPECT_FALSE(recorder.verdict_of(1, o4p, o2p));
  // Site 2 checks O'4 against O2, O'1 (not) and O3 (concurrent).
  EXPECT_FALSE(recorder.verdict_of(2, o4p, o2));
  EXPECT_FALSE(recorder.verdict_of(2, o4p, o1p));
  EXPECT_TRUE(recorder.verdict_of(2, o4p, o3));

  // Handling O3: site 0 checks against O'2, O'1 (not) and O'4
  // (concurrent).
  EXPECT_FALSE(recorder.verdict_of(0, o3, o2p));
  EXPECT_FALSE(recorder.verdict_of(0, o3, o1p));
  EXPECT_TRUE(recorder.verdict_of(0, o3, o4p));
  // Site 1 checks O'3 against O1, O'2, O'4 -> none concurrent.
  EXPECT_FALSE(recorder.verdict_of(1, o3p, o1));
  EXPECT_FALSE(recorder.verdict_of(1, o3p, o2p));
  EXPECT_FALSE(recorder.verdict_of(1, o3p, o4p));
  // Site 3 checks O'3 against O'2, O4, O'1 -> none concurrent.
  EXPECT_FALSE(recorder.verdict_of(3, o3p, o2p));
  EXPECT_FALSE(recorder.verdict_of(3, o3p, o4));
  EXPECT_FALSE(recorder.verdict_of(3, o3p, o1p));

  EXPECT_EQ(recorder.verdicts().size(), 21u);
}

TEST_F(Fig3Test, OracleConfirmsEveryVerdict) {
  EXPECT_EQ(oracle.verdicts_checked(), 21u);
  EXPECT_EQ(oracle.verdict_mismatches(), 0u);
  EXPECT_EQ(oracle.concurrent_verdicts(), 6u);
}

TEST_F(Fig3Test, ConvergesIntentionPreserved) {
  EXPECT_TRUE(session->converged());
  // Derived by hand in the §5 schedule: O1's "12" lands left of O4's "y"
  // (site-1 priority), O2's "CDE" is gone, O3's "x" stays after "B".
  EXPECT_EQ(session->notifier().text(), "A12yBx");
  // The §2.2 subset: "12" present, "CDE" absent everywhere.
  for (const auto& doc : session->documents()) {
    EXPECT_NE(doc.find("12"), std::string::npos);
    EXPECT_EQ(doc.find("C"), std::string::npos);
    EXPECT_EQ(doc.find("D"), std::string::npos);
    EXPECT_EQ(doc.find("E"), std::string::npos);
  }
}

TEST_F(Fig3Test, NotifierCapturedIntentions) {
  // The executed form of O2 at the notifier deleted exactly "CDE".
  const auto& hb = session->notifier().history();
  std::string deleted;
  for (const auto& p : hb[0].executed) deleted += p.text;
  EXPECT_EQ(deleted, "CDE");
}

TEST_F(Fig3Test, TransformedFormsDifferFromOriginals) {
  // §5's central observation: O'4 as issued is "an operation different
  // from O_4" — site 3 generated Insert["y", 1] but the notifier issued
  // it transformed against the concurrent O'1 as Insert["y", 3].
  const auto& hb = session->notifier().history();
  ASSERT_EQ(hb[2].id, ids.o4);
  ASSERT_EQ(hb[2].executed.size(), 1u);
  EXPECT_EQ(hb[2].executed[0].text, "y");
  EXPECT_EQ(hb[2].executed[0].pos, 3u);
}

}  // namespace
}  // namespace ccvc::sim
