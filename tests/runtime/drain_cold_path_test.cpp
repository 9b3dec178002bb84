// Cold-path coverage for the drain protocol: capacity-2 rings with
// max_batch=1 force every backoff spin (full central ring, full egress
// ring) and every drain wake-up path (committed_, pending_batched_,
// egress_inflight_) to actually run, across repeated drain()/submit()
// interleavings — the regime docs/BLOCKING.md's wait-for edges
// describe.  Also covers a malformed uplink rejected by submit() on the
// caller's thread.  TSan covers this suite via CI step 13 (ctest label
// `runtime`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "engine/client_site.hpp"
#include "engine/config.hpp"
#include "net/channel.hpp"
#include "runtime/pipeline.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

namespace {

using namespace ccvc;

// commit_order is read nowhere now that there is one ingress path; the
// Pinned/Free cases are kept so both config values stay covered.
struct ColdCase {
  runtime::CommitOrder order;
  runtime::FlushPolicy flush;
};

class DrainColdPath : public ::testing::TestWithParam<ColdCase> {};

// One client feeding the tiniest legal pipeline, draining after every
// tiny burst.  Every submit beyond the second of a burst must ride the
// full-ring backoff spin; every drain starts from a freshly woken cv.
TEST_P(DrainColdPath, RepeatedDrainSubmitInterleavings) {
  runtime::PipelineConfig pcfg;
  pcfg.ring_capacity = 2;  // smallest power of two > 1
  pcfg.max_batch = 1;      // a frame per committed op
  pcfg.commit_order = GetParam().order;
  pcfg.flush = GetParam().flush;

  engine::EngineConfig ecfg;
  // Two sites: the center skips the originator on broadcast, so a
  // second (silent) site is the destination every egress frame targets.
  std::atomic<std::size_t> frames{0};
  runtime::NotifierPipeline pipe(
      2, "", ecfg,
      [&frames](SiteId dest, net::Payload) {
        EXPECT_EQ(dest, 2u);
        frames.fetch_add(1, std::memory_order_relaxed);
      },
      pcfg);

  engine::ClientSite client(
      1, 2, "", ecfg,
      [&pipe](net::Payload bytes) { pipe.submit(1, std::move(bytes)); });

  // An empty drain is the coldest path of all: drained() is already
  // true, the waiter must not hang waiting for a notify that never
  // comes (nothing is in flight to send one).
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 0u);
  EXPECT_EQ(pipe.committed(), 0u);

  std::string expected;
  for (int round = 0; round < 20; ++round) {
    // A 3-insert burst overfills the capacity-2 central ring, so the
    // third submit exercises the producer-side backoff spin while the
    // consumer threads race the drain that follows.
    for (int k = 0; k < 3; ++k) {
      const char ch = static_cast<char>('a' + ((round + k) % 26));
      client.insert(expected.size(), std::string(1, ch));
      expected.push_back(ch);
    }
    pipe.drain();
    EXPECT_EQ(pipe.committed(), pipe.submitted());
    EXPECT_EQ(pipe.submitted(), static_cast<std::uint64_t>(expected.size()));

    // Back-to-back drain with nothing new submitted: the predicate is
    // already true, the second wait must fall straight through.
    pipe.drain();
    EXPECT_EQ(pipe.committed(), pipe.submitted());
  }

  EXPECT_EQ(pipe.site().text(), expected);
  // max_batch=1: every committed op left as its own egress frame.
  EXPECT_EQ(frames.load(std::memory_order_relaxed), expected.size());

  pipe.shutdown();
  // shutdown() is idempotent, and the destructor will call it again.
  pipe.shutdown();
  EXPECT_EQ(pipe.site().text(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DrainColdPath,
    ::testing::Values(
        ColdCase{runtime::CommitOrder::kPinned, runtime::FlushPolicy::kFixed},
        ColdCase{runtime::CommitOrder::kPinned,
                 runtime::FlushPolicy::kAdaptive},
        ColdCase{runtime::CommitOrder::kFree, runtime::FlushPolicy::kFixed},
        ColdCase{runtime::CommitOrder::kFree,
                 runtime::FlushPolicy::kAdaptive}),
    [](const ::testing::TestParamInfo<ColdCase>& pinfo) {
      std::string name =
          pinfo.param.order == runtime::CommitOrder::kPinned ? "Pinned"
                                                             : "Free";
      name += pinfo.param.flush == runtime::FlushPolicy::kFixed ? "Fixed"
                                                                : "Adaptive";
      return name;
    });

// A payload parse_uplink rejects, or one from a site outside
// [1, num_sites], throws out of submit() on the caller's thread:
// nothing is counted or enqueued, drain() still returns, and the
// pipeline keeps committing the valid uplinks that follow.
TEST(PipelineIngress, MalformedUplinkThrowsOnTheCaller) {
  runtime::PipelineConfig pcfg;
  pcfg.max_batch = 1;  // a frame per committed op
  engine::EngineConfig ecfg;
  std::atomic<std::size_t> frames{0};
  runtime::NotifierPipeline pipe(
      2, "", ecfg,
      [&frames](SiteId dest, net::Payload) {
        EXPECT_EQ(dest, 2u);
        frames.fetch_add(1, std::memory_order_relaxed);
      },
      pcfg);

  // Throwaway clients only produce bytes; their state never meets the
  // pipeline's, so the real client 1 below starts from a clean slate.
  net::Payload captured;
  const auto capture = [&captured](net::Payload bytes) {
    captured = std::move(bytes);
  };
  engine::ClientSite scratch1(1, 2, "", ecfg, capture);
  scratch1.insert(0, "x");
  net::Payload truncated = captured;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(pipe.submit(1, truncated), util::DecodeError);
  EXPECT_EQ(pipe.submitted(), 0u);

  // A well-formed message from site 2, arriving on site 1's channel.
  engine::ClientSite scratch2(2, 2, "", ecfg, capture);
  scratch2.insert(0, "y");
  EXPECT_THROW(pipe.submit(1, captured), ContractViolation);
  EXPECT_EQ(pipe.submitted(), 0u);

  // A well-formed message from a site the 2-site pipeline does not
  // have, on its own channel: parse_uplink accepts it, submit() must
  // not.
  engine::ClientSite scratch3(3, 3, "", ecfg, capture);
  scratch3.insert(0, "z");
  EXPECT_THROW(pipe.submit(3, captured), ContractViolation);
  EXPECT_EQ(pipe.submitted(), 0u);

  pipe.drain();
  EXPECT_EQ(pipe.committed(), 0u);
  EXPECT_EQ(frames.load(std::memory_order_relaxed), 0u);

  engine::ClientSite client(
      1, 2, "", ecfg,
      [&pipe](net::Payload bytes) { pipe.submit(1, std::move(bytes)); });
  client.insert(0, "ab");
  client.insert(2, "c");
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 2u);
  EXPECT_EQ(pipe.committed(), 2u);
  EXPECT_EQ(pipe.site().text(), "abc");
  EXPECT_EQ(frames.load(std::memory_order_relaxed), 2u);
}

}  // namespace
