// Determinism equivalence of the threaded backend: a recorded simulator
// trace replayed through the pipeline (CommitOrder::kPinned) must
// reproduce the simulator byte for byte — notifier checkpoint and every
// destination's unbatched downlink stream (docs/THREADING.md §4).
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/equivalence.hpp"

namespace {

using namespace ccvc;
using sim::EquivalenceConfig;
using sim::EquivalenceReport;

void expect_equivalent(const EquivalenceConfig& cfg) {
  const EquivalenceReport r = sim::run_equivalence(cfg);
  EXPECT_TRUE(r.sim_converged) << "sim did not converge";
  EXPECT_TRUE(r.state_identical)
      << "notifier checkpoints diverge (sim \"" << r.sim_text
      << "\" vs replay \"" << r.replay_text << "\")";
  EXPECT_TRUE(r.egress_identical) << "downlink byte streams diverge";
  EXPECT_GT(r.uplinks, 0u);
  EXPECT_GT(r.batch_frames, 0u);
}

// The acceptance sweep: every group size from pair to eight-way, three
// seeds each, byte-identical across the board.
TEST(PipelineEquivalence, SweepSitesAndSeeds) {
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      EquivalenceConfig cfg;
      cfg.num_sites = n;
      cfg.ops_per_site = 30;
      cfg.seed = seed;
      expect_equivalent(cfg);
    }
  }
}

// Batch boundaries must not affect the unbatched stream: max_batch 1
// (degenerate, one message per frame) and the kMaxBatchMsgs extreme
// both reproduce the same bytes.
TEST(PipelineEquivalence, BatchBoundIsTransparent) {
  for (std::size_t max_batch : {std::size_t{1}, std::size_t{256}}) {
    EquivalenceConfig cfg;
    cfg.num_sites = 4;
    cfg.ops_per_site = 25;
    cfg.seed = 11;
    cfg.max_batch = max_batch;
    expect_equivalent(cfg);
  }
}

// Shard count changes which thread parses what, never what commits:
// one shard (no parse concurrency) and four shards agree.
TEST(PipelineEquivalence, ShardCountIsTransparent) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    EquivalenceConfig cfg;
    cfg.num_sites = 5;
    cfg.ops_per_site = 25;
    cfg.seed = 17;
    cfg.num_shards = shards;
    expect_equivalent(cfg);
  }
}

// A tiny ring forces every backoff path (producers blocking on full
// rings) without changing the result.
TEST(PipelineEquivalence, TinyRingsStillEquivalent) {
  EquivalenceConfig cfg;
  cfg.num_sites = 4;
  cfg.ops_per_site = 30;
  cfg.seed = 23;
  cfg.ring_capacity = 4;
  expect_equivalent(cfg);
}

// The benchmark's fan-out width: every broadcast reaches 31 or 63
// destinations, and each must still get exactly the simulator's bytes.
TEST(PipelineEquivalence, WideFanout) {
  for (std::size_t n : {std::size_t{32}, std::size_t{64}}) {
    for (std::uint64_t seed : {1u, 2u}) {
      EquivalenceConfig cfg;
      cfg.num_sites = n;
      cfg.ops_per_site = 3;
      cfg.seed = seed;
      expect_equivalent(cfg);
    }
  }
}

TEST(PipelineEquivalence, FullVectorModeEquivalent) {
  EquivalenceConfig cfg;
  cfg.num_sites = 3;
  cfg.ops_per_site = 20;
  cfg.seed = 29;
  cfg.engine.stamp_mode = engine::StampMode::kFullVector;
  expect_equivalent(cfg);
}

}  // namespace
