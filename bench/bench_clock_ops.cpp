// E5 — on-line cost of the clock machinery (google-benchmark micro):
// the concurrency checks and timestamping must be cheap enough to run
// per message (the paper dismisses trace-based schemes [7,12] precisely
// because their per-event cost is too high for on-line use).
//
//  * formula (5) client check           — O(1)
//  * formula (7) notifier check, O(1)   — running-sum variant
//  * formula (7) notifier check, O(N)   — naive Σ recomputation
//  * full-vector comparison             — O(N) baseline check
//  * eq. (1)-(2) per-destination stamp  — O(1) with running sum
//  * compressed / full-vector stamp encode
//  * SK prepare_send + on_receive round
//  * Fowler–Zwaenepoel offline reconstruction — the [7]-style scalar
//    scheme the paper's §1 rules out for on-line use; cost grows with
//    the causal history walked per query.
//  * ot::transform of n×n primitive lists (layer L0 of the per-op
//    cost), pair-returning versus in-place.
#include <benchmark/benchmark.h>

#include "clocks/compressed_sv.hpp"
#include "clocks/dependency_log.hpp"
#include "clocks/sk_clock.hpp"
#include "clocks/version_vector.hpp"
#include "ot/transform.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace {

using namespace ccvc;

clocks::VersionVector random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  clocks::VersionVector v(n);
  for (SiteId i = 0; i < n; ++i) {
    const auto k = rng.below(8);
    for (std::uint64_t j = 0; j < k; ++j) v.tick(i);
  }
  return v;
}

void BM_ClientCheckFormula5(benchmark::State& state) {
  const clocks::CompressedSv ta{100, 3};
  const clocks::CompressedSv tb{90, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clocks::concurrent_at_client(ta, tb, clocks::HbSource::kLocal));
  }
}
BENCHMARK(BM_ClientCheckFormula5);

void BM_NotifierCheckO1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto full = random_vector(n + 1, 1);
  const clocks::CompressedSv ta{5, 2};
  const std::uint64_t sum = full.sum();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clocks::concurrent_at_notifier_o1(ta, 1, sum, full[1], 2));
  }
}
BENCHMARK(BM_NotifierCheckO1)->RangeMultiplier(4)->Range(4, 1024);

void BM_NotifierCheckNaiveSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto full = random_vector(n + 1, 1);
  const clocks::CompressedSv ta{5, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocks::concurrent_at_notifier(ta, 1, full, 2));
  }
}
BENCHMARK(BM_NotifierCheckNaiveSum)->RangeMultiplier(4)->Range(4, 1024);

void BM_FullVectorCompare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_FullVectorCompare)->RangeMultiplier(4)->Range(4, 1024);

void BM_NotifierStampForDest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  clocks::NotifierClock clock(n);
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    clock.on_op_from(static_cast<SiteId>(1 + rng.index(n)));
  }
  SiteId dest = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.stamp_for(dest));
    dest = dest % static_cast<SiteId>(n) + 1;
  }
}
BENCHMARK(BM_NotifierStampForDest)->RangeMultiplier(4)->Range(4, 1024);

void BM_EncodeCompressedStamp(benchmark::State& state) {
  const clocks::CompressedSv sv{12345, 678};
  for (auto _ : state) {
    util::ByteSink sink;
    sv.encode(sink);
    benchmark::DoNotOptimize(sink.size());
  }
}
BENCHMARK(BM_EncodeCompressedStamp);

void BM_EncodeFullVectorStamp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto v = random_vector(n, 5);
  for (auto _ : state) {
    util::ByteSink sink;
    v.encode(sink);
    benchmark::DoNotOptimize(sink.size());
  }
}
BENCHMARK(BM_EncodeFullVectorStamp)->RangeMultiplier(4)->Range(4, 1024);

void BM_SkSendReceiveRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  clocks::SkProcess a(0, n), b(1, n);
  for (auto _ : state) {
    const auto ts = a.prepare_send(1);
    b.on_receive(ts);
    benchmark::DoNotOptimize(b.clock()[0]);
  }
}
BENCHMARK(BM_SkSendReceiveRound)->RangeMultiplier(4)->Range(4, 1024);

void BM_FzOfflineReconstruct(benchmark::State& state) {
  // Build a dependency log of `events` events over 8 processes with
  // dense messaging, then measure the cost of answering one causality
  // query by offline reconstruction — the paper's §1 argument against
  // trace-based schemes, quantified.
  const auto events = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 8;
  clocks::DependencyTracker tracker(n);
  util::Rng rng(11);
  std::vector<clocks::EventId> log;
  log.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const auto p = static_cast<SiteId>(rng.index(n));
    if (!log.empty() && rng.chance(0.5)) {
      log.push_back(tracker.receive_event(p, log[rng.index(log.size())]));
    } else {
      log.push_back(tracker.local_event(p));
    }
  }
  const clocks::EventId last = log.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.reconstruct(last));
  }
}
BENCHMARK(BM_FzOfflineReconstruct)->RangeMultiplier(4)->Range(64, 16384);

/// `n` single-primitive edits from `origin`, each defined on the result
/// of those before it, starting from a 64-character document: inserts
/// of 1–3 characters and 1-character deletes, as a user generates them.
ot::OpList random_prims(std::size_t n, SiteId origin, std::uint64_t seed) {
  util::Rng rng(seed);
  std::size_t size = 64;
  ot::OpList out;
  for (std::size_t i = 0; i < n; ++i) {
    ot::OpList op;
    if (rng.chance(0.6)) {
      op = ot::make_insert(rng.index(size + 1),
                           std::string(1 + rng.index(3), 'x'), origin);
      size += op.front().text.size();
    } else {
      op = ot::make_delete(rng.index(size), 1, origin);
      --size;
    }
    out.push_back(op.front());
  }
  return out;
}

void BM_TransformPair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ot::OpList a = random_prims(n, 1, 21);
  const ot::OpList b = random_prims(n, 2, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ot::transform(a, b));
  }
}
BENCHMARK(BM_TransformPair)->Arg(1)->Arg(4)->Arg(8);

void BM_TransformInPlace(benchmark::State& state) {
  // Each iteration first restores both lists from the originals
  // (copy-assignment into the existing buffers, so no allocation); the
  // figure is an upper bound on the in-place transform alone.
  const auto n = static_cast<std::size_t>(state.range(0));
  const ot::OpList a0 = random_prims(n, 1, 21);
  const ot::OpList b0 = random_prims(n, 2, 22);
  ot::OpList a = a0;
  ot::OpList b = b0;
  for (auto _ : state) {
    a = a0;
    b = b0;
    ot::transform_in_place(a, b);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TransformInPlace)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
