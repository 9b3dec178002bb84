// E9 (micro) — the notifier is the star's chokepoint: it executes and
// re-times every operation (§2.1).  These microbenchmarks measure its
// message-processing cost as N and the per-client pending depth grow,
// plus the client-side receive path.
// Plus: got_transform on the same suffix depths — the GOT reference's
// exclude/re-include chain is quadratic in the causal interleaving,
// another reason the IT-only bridge control is the production path.
// Plus: BM_BroadcastFanout, the per-destination cost of one broadcast
// (eq. (1)-(2)) through each of the notifier's two receivers.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/got.hpp"
#include "engine/notifier_site.hpp"
#include "ot/text_op.hpp"
#include "runtime/batch.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccvc;

/// A notifier fed directly (no simulated network), with sinks that drop
/// outgoing traffic.
struct DirectNotifier {
  explicit DirectNotifier(std::size_t n, bool log_verdicts = true) {
    engine::EngineConfig cfg;
    cfg.log_verdicts = log_verdicts;
    cfg.check_fidelity = false;  // no recorder to compare against here
    site = std::make_unique<engine::NotifierSite>(
        n, std::string(256, 'x'), cfg,
        [](SiteId, net::Payload) {} /* drop */);
  }
  std::unique_ptr<engine::NotifierSite> site;
};

net::Payload make_client_payload(SiteId from, SeqNo seq,
                                 std::uint64_t recv_count, std::size_t pos) {
  engine::ClientMsg msg;
  msg.id = OpId{from, seq};
  msg.ops = ot::make_insert(pos, "ab", from);
  msg.stamp.csv = clocks::CompressedSv{recv_count, seq};
  return encode(msg, engine::StampMode::kCompressed);
}

void BM_NotifierProcessMessage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DirectNotifier d(n, /*log_verdicts=*/false);
  util::Rng rng(1);
  std::vector<SeqNo> seq(n + 1, 0);
  std::vector<std::uint64_t> recv(n + 1, 0);
  std::uint64_t issued = 0;
  for (auto _ : state) {
    const auto from = static_cast<SiteId>(1 + rng.index(n));
    // Keep clients fully caught up so the bridge stays shallow — this
    // measures the base cost of execute+stamp+broadcast bookkeeping.
    recv[from] = issued - seq[from];
    d.site->on_client_message(
        from, make_client_payload(from, ++seq[from], recv[from], 0));
    ++issued;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NotifierProcessMessage)->RangeMultiplier(4)->Range(2, 128);

void BM_NotifierTransformDepth(benchmark::State& state) {
  // One stale client whose message must be transformed against `depth`
  // concurrent operations in its bridge queue.
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2;
  for (auto _ : state) {
    state.PauseTiming();
    DirectNotifier d(n, /*log_verdicts=*/false);
    // Client 2 floods `depth` ops; client 1 hasn't seen any of them.
    for (SeqNo s = 1; s <= depth; ++s) {
      d.site->on_client_message(2, make_client_payload(2, s, 0, 0));
    }
    state.ResumeTiming();
    d.site->on_client_message(1, make_client_payload(1, 1, 0, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NotifierTransformDepth)->RangeMultiplier(4)->Range(1, 256);

void BM_NotifierVerdictScanHbSize(benchmark::State& state) {
  // Cost of the formula-(7) scan as HB_0 grows (log_verdicts on).
  const auto hb = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 4;
  DirectNotifier d(n, /*log_verdicts=*/true);
  std::vector<SeqNo> seq(n + 1, 0);
  std::uint64_t issued = 0;
  util::Rng rng(3);
  auto feed_one = [&] {
    const auto from = static_cast<SiteId>(1 + rng.index(n));
    const SeqNo s = ++seq[from];
    const std::uint64_t recv = issued - (s - 1);  // fully caught up
    d.site->on_client_message(from, make_client_payload(from, s, recv, 0));
    ++issued;
  };
  for (std::size_t i = 0; i < hb; ++i) feed_one();
  for (auto _ : state) feed_one();
}
BENCHMARK(BM_NotifierVerdictScanHbSize)->RangeMultiplier(8)->Range(8, 4096);

void BM_ClientReceivePath(benchmark::State& state) {
  // Client-side cost of one incoming center op with a small pending list.
  const auto pending = static_cast<std::size_t>(state.range(0));
  engine::EngineConfig cfg;
  cfg.log_verdicts = false;
  engine::ClientSite client(1, 4, std::string(256, 'x'), cfg,
                            [](net::Payload) {});
  for (std::size_t i = 0; i < pending; ++i) client.insert(0, "q");

  SeqNo seq = 0;
  for (auto _ : state) {
    engine::CenterMsg msg;
    msg.id = OpId{2, ++seq};
    msg.ops = ot::make_insert(1, "zz", 2);
    msg.stamp.csv = clocks::CompressedSv{seq, 0};  // acks nothing
    client.on_center_message(encode(msg, engine::StampMode::kCompressed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClientReceivePath)->Arg(0)->Arg(4)->Arg(16);

void BM_BroadcastFanout(benchmark::State& state) {
  // One broadcast to N-1 destinations per iteration, reported as time
  // per destination (per_dest: the whole apply_uplink, parse included,
  // over its N-1 destinations).  frame=0 hands each destination a
  // stamped buffer through the SendFn adapter (the simulator's and the
  // serial replay's path); frame=1 writes it straight into that
  // destination's open 0xC5 frame, flushed every 16 messages (the
  // threaded pipeline's path, without its threads).  Senders take turns
  // and are always caught up, so no transforms run and every bridge
  // queue is acked down once per round; inserts and deletes alternate,
  // so the document keeps its size.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool frame = state.range(1) != 0;
  engine::EngineConfig cfg;
  cfg.log_verdicts = false;
  cfg.check_fidelity = false;
  cfg.gc_history = true;
  std::vector<runtime::BatchAssembler> assemblers;
  for (std::size_t i = 0; i <= n; ++i) assemblers.emplace_back(16);
  std::unique_ptr<engine::NotifierSite> site;
  if (frame) {
    site = std::make_unique<engine::NotifierSite>(
        n, std::string(256, 'x'), cfg,
        [&](SiteId dest, const engine::CenterMsgEncoder& msg,
            const engine::Stamp& stamp) {
          if (assemblers[dest].add(msg, stamp, cfg.stamp_mode)) {
            benchmark::DoNotOptimize(assemblers[dest].flush());
          }
        });
  } else {
    site = std::make_unique<engine::NotifierSite>(
        n, std::string(256, 'x'), cfg, [](SiteId, net::Payload bytes) {
          benchmark::DoNotOptimize(bytes.data());
        });
  }
  std::uint64_t issued = 0;
  for (auto _ : state) {
    const auto from = static_cast<SiteId>(1 + issued % n);
    const SeqNo seq = issued / n + 1;
    engine::ClientMsg msg;
    msg.id = OpId{from, seq};
    msg.ops = issued % 2 == 0 ? ot::make_insert(0, "ab", from)
                              : ot::make_delete(0, 2, from);
    msg.stamp.csv = clocks::CompressedSv{issued - (seq - 1), seq};
    site->on_client_message(from,
                            encode(msg, engine::StampMode::kCompressed));
    ++issued;
  }
  state.counters["per_dest"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n - 1),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BroadcastFanout)
    ->ArgsProduct({{16, 64, 256}, {0, 1}})
    ->ArgNames({"N", "frame"});

void BM_GotTransformSuffix(benchmark::State& state) {
  // A suffix of `depth` entries alternating concurrent/causal — the
  // worst shape for GOT's exclude/re-include conversion.
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::vector<engine::GotHbItem> hb;
  util::Rng rng(5);
  for (std::size_t i = 0; i < depth; ++i) {
    // 1-char inserts have no strict interior, so every exclusion along
    // the chain stays defined and the full quadratic cost is measured.
    hb.push_back(engine::GotHbItem{
        ot::make_insert(rng.index(64), "a", static_cast<SiteId>(2 + i % 3)),
        /*concurrent=*/i % 2 == 0});
  }
  const ot::OpList o = ot::make_insert(3, "x", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::got_transform(hb, o));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GotTransformSuffix)->RangeMultiplier(4)->Range(1, 256);

}  // namespace

BENCHMARK_MAIN();
