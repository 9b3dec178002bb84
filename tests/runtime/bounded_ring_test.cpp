// BoundedRing unit and stress coverage: FIFO semantics, full/empty
// edges, and the per-producer ordering guarantee the pipeline's central
// ring relies on (docs/THREADING.md §2).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/bounded_ring.hpp"
#include "util/check.hpp"

namespace {

using namespace ccvc;
using runtime::BoundedRing;

TEST(BoundedRing, SingleThreadFifo) {
  BoundedRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  int extra = 99;
  EXPECT_FALSE(ring.try_push(std::move(extra)));  // full
  for (int i = 0; i < 8; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(BoundedRing, WrapsAroundManyTimes) {
  BoundedRing<std::uint64_t> ring(4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(std::uint64_t(i)));
    std::uint64_t out = 0;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(BoundedRing, NonPowerOfTwoCapacityIsContractViolation) {
  EXPECT_THROW(BoundedRing<int>(3), ContractViolation);
  EXPECT_THROW(BoundedRing<int>(0), ContractViolation);
  EXPECT_THROW(BoundedRing<int>(1), ContractViolation);
}

// Multiple producers, one consumer: every item arrives exactly once and
// each producer's items arrive in its push order — the property that
// keeps each client's uplink FIFO through the central ring.
TEST(BoundedRing, MpscStressPreservesPerProducerFifo) {
  struct Item {
    std::uint32_t producer = 0;
    std::uint32_t seq = 0;
  };
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 5000;
  BoundedRing<Item> ring(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      runtime::Backoff bo;
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(Item{p, i})) bo.pause();
        bo.reset();
      }
    });
  }

  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  runtime::Backoff bo;
  while (received < std::uint64_t{kProducers} * kPerProducer) {
    Item item;
    if (!ring.try_pop(item)) {
      bo.pause();
      continue;
    }
    bo.reset();
    ASSERT_LT(item.producer, kProducers);
    EXPECT_EQ(item.seq, next_seq[item.producer]);
    ++next_seq[item.producer];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  Item leftover;
  EXPECT_FALSE(ring.try_pop(leftover));
}

}  // namespace
