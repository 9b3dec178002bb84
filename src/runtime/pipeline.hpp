// The threaded notifier pipeline — the second backend behind the
// deterministic simulator (docs/THREADING.md).
//
// Stage layout (every arrow is a BoundedRing):
//
//   submit(from, bytes)            [any thread]
//     parse_uplink                 [stateless decode, on the caller]
//        |---> central MPSC ring
//   transform thread: apply_uplink [single-writer GOT + SV state]
//        |---> each destination's open 0xC5 frame (BatchAssembler;
//              flush policy below)
//        |---> egress ring
//   egress thread: EgressFn(dest, 0xC5 batch frame)
//
// Commit order is central-ring order.  The ring is per-producer FIFO,
// so each client's uplinks commit in submission order — the only order
// the protocol needs — and a single submitting thread (the equivalence
// replay, sim/equivalence.hpp) commits in exactly its call order.
//
// Flush policy:
//  * kFixed — a destination flushes exactly when its assembler reaches
//    max_batch, plus a final residue flush at drain().  Deterministic
//    batch boundaries (benchmarks, golden comparisons).
//  * kAdaptive — additionally flushes everything whenever the central
//    ring runs empty (a tick boundary), bounding latency under light
//    load.
//
// A malformed uplink, and any uplink from a site whose leave submit()
// already accepted (a second leave included), throws out of submit() on
// the caller's thread, before anything is counted or enqueued.  The
// pipeline threads never catch exceptions: a ContractViolation on the
// transform stage is a protocol-state corruption and must terminate the
// process, exactly as it would abort the deterministic simulator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/config.hpp"
#include "engine/notifier_site.hpp"
#include "net/channel.hpp"
#include "runtime/batch.hpp"
#include "runtime/bounded_ring.hpp"
#include "util/types.hpp"

namespace ccvc::runtime {

enum class CommitOrder : std::uint8_t { kPinned, kFree };

enum class FlushPolicy : std::uint8_t {
  kFixed,     ///< flush at max_batch + at drain only (deterministic)
  kAdaptive,  ///< additionally flush on an empty central ring
};

struct PipelineConfig {
  /// num_shards and commit_order remain only because
  /// perfbench/src/replay.cpp still assigns them: there is one ingress
  /// path, so num_shards must be 1, and commit_order is read nowhere.
  std::size_t num_shards = 1;
  /// Per-ring capacity; power of two.
  std::size_t ring_capacity = 1024;
  /// Egress coalescing bound, in [1, wire::kMaxBatchMsgs].
  std::size_t max_batch = 16;
  CommitOrder commit_order = CommitOrder::kPinned;
  FlushPolicy flush = FlushPolicy::kFixed;
};

class NotifierPipeline {
 public:
  /// Delivers one encoded EgressBatch frame toward client `dest`.
  /// Runs on the egress thread.
  using EgressFn = std::function<void(SiteId dest, net::Payload batch)>;

  NotifierPipeline(std::size_t num_sites, std::string_view initial_doc,
                   const engine::EngineConfig& cfg, EgressFn egress,
                   const PipelineConfig& pcfg = {});
  ~NotifierPipeline();

  NotifierPipeline(const NotifierPipeline&) = delete;
  NotifierPipeline& operator=(const NotifierPipeline&) = delete;

  /// Parses one uplink payload from client `from` on the calling
  /// thread and enqueues it for commit.  Callable from any thread;
  /// blocks (backoff) while the central ring is full.  Calls from one
  /// thread commit in call order.  A payload parse_uplink rejects, or
  /// one from a site that has already left, throws here and is neither
  /// counted nor enqueued.
  void submit(SiteId from, net::Payload bytes);

  /// Blocks until everything submitted so far is parsed, committed,
  /// flushed, and handed to the EgressFn.  No submit() may run
  /// concurrently with drain().
  void drain();

  /// drain() + stop + join.  Idempotent; the destructor calls it.
  void shutdown();

  /// The single-writer engine underneath.  Only meaningful while the
  /// pipeline is quiescent (after drain()).
  engine::NotifierSite& site() { return *site_; }
  const engine::NotifierSite& site() const { return *site_; }

  std::uint64_t submitted() const;
  std::uint64_t committed() const;

 private:
  struct EgressItem {
    SiteId dest = 0;
    net::Payload bytes;
  };

  void transform_loop();
  void egress_loop();
  void commit(engine::NotifierSite::ParsedUplink parsed);
  void batch_broadcast(SiteId dest, const engine::CenterMsgEncoder& msg,
                       const engine::Stamp& stamp);
  void publish_pending();
  void flush_dest(SiteId dest);
  void flush_all();
  bool drained() const;
  void notify_drain();

  std::size_t num_sites_;
  engine::EngineConfig cfg_;
  PipelineConfig pcfg_;
  EgressFn egress_;

  std::unique_ptr<engine::NotifierSite> site_;
  std::vector<BatchAssembler> assemblers_;  // [dest]; transform thread only
  // Messages in assemblers_, counted on the transform thread and
  // published to pending_batched_ once per commit and per flush.
  std::int64_t pending_local_ = 0;
  // [site]: submit() has accepted its leave.
  std::vector<std::atomic<bool>> departed_;

  BoundedRing<engine::NotifierSite::ParsedUplink> central_;
  BoundedRing<EgressItem> egress_ring_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::int64_t> pending_batched_{0};
  std::atomic<std::int64_t> egress_inflight_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_requested_{false};

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::vector<std::thread> threads_;
};

}  // namespace ccvc::runtime
