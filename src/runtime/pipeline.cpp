#include "runtime/pipeline.hpp"

#include <chrono>
#include <utility>

#include "runtime/backoff.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace ccvc::runtime {

namespace {

std::uint64_t wall_us_since(std::chrono::steady_clock::time_point t0) {
  // Real wall time: the documented exception to the simulated-time rule
  // (docs/OBSERVABILITY.md §2) — threaded stages have no sim clock.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

NotifierPipeline::NotifierPipeline(std::size_t num_sites,
                                   std::string_view initial_doc,
                                   const engine::EngineConfig& cfg,
                                   EgressFn egress,
                                   const PipelineConfig& pcfg)
    : num_sites_(num_sites),
      cfg_(cfg),
      pcfg_(pcfg),
      egress_(std::move(egress)),
      central_(pcfg.ring_capacity),
      egress_ring_(pcfg.ring_capacity) {
  CCVC_CHECK(static_cast<bool>(egress_));
  CCVC_CHECK_MSG(pcfg_.num_shards == 1,
                 "num_shards must be 1: submit() parses on its caller");
  site_ = std::make_unique<engine::NotifierSite>(
      num_sites_, initial_doc, cfg_,
      [this](SiteId dest, net::Payload bytes) {
        on_broadcast(dest, std::move(bytes));
      });
  assemblers_.reserve(num_sites_ + 1);
  for (std::size_t i = 0; i <= num_sites_; ++i) {
    assemblers_.emplace_back(pcfg_.max_batch);
  }
  threads_.reserve(2);
  threads_.emplace_back([this] { transform_loop(); });
  threads_.emplace_back([this] { egress_loop(); });
}

NotifierPipeline::~NotifierPipeline() { shutdown(); }

std::uint64_t NotifierPipeline::submitted() const {
  return submitted_.load(std::memory_order_acquire);
}

std::uint64_t NotifierPipeline::committed() const {
  return committed_.load(std::memory_order_acquire);
}

void NotifierPipeline::submit(SiteId from, net::Payload bytes) {
  // parse_uplink only checks the message against `from`; a `from` past
  // num_sites_ would otherwise pass here and abort the transform thread.
  CCVC_CHECK_MSG(from >= 1 && from <= num_sites_,
                 "uplink from a site outside [1, num_sites]");
  const auto t0 = std::chrono::steady_clock::now();
  engine::NotifierSite::ParsedUplink parsed =
      engine::NotifierSite::parse_uplink(from, bytes, cfg_);
  CCVC_METRIC_HIST("runtime.stage.ingress_us", wall_us_since(t0));
  // Counted only once the parse succeeded, and before the push, so
  // committed_ never overtakes submitted_.  A rising submitted_ can only
  // falsify drained(); no sleeping waiter's predicate turns true, so no
  // notify is needed here.
  submitted_.fetch_add(1, std::memory_order_acq_rel);  // ccvc-sa: allow(liveness-discipline)
  CCVC_METRIC_COUNT("runtime.ingress.submitted", 1);
  Backoff bo;
  // Space always reappears: the transform consumer drains central_
  // until stop_, which shutdown orders after drain() (docs/BLOCKING.md).
  while (!central_.try_push(std::move(parsed))) bo.pause();  // ccvc-sa: allow(liveness-discipline)
}

void NotifierPipeline::transform_loop() {
  Backoff bo;
  for (;;) {
    engine::NotifierSite::ParsedUplink parsed;
    if (central_.try_pop(parsed)) {
      bo.reset();
      CCVC_METRIC_GAUGE_SET("runtime.ring.depth", central_.approx_size());
      commit(std::move(parsed));
      continue;
    }
    // Central ring empty: a tick boundary.
    const bool quiet = committed_.load(std::memory_order_acquire) ==
                       submitted_.load(std::memory_order_acquire);
    const bool draining = drain_requested_.load(std::memory_order_acquire);
    if (pending_batched_.load(std::memory_order_acquire) > 0 &&
        (pcfg_.flush == FlushPolicy::kAdaptive || (draining && quiet))) {
      flush_all();
    }
    if (draining && quiet) notify_drain();
    if (stop_.load(std::memory_order_acquire) && quiet) return;
    bo.pause();
  }
}

void NotifierPipeline::egress_loop() {
  Backoff bo;
  for (;;) {
    EgressItem item;
    if (egress_ring_.try_pop(item)) {
      bo.reset();
      egress_(item.dest, std::move(item.bytes));
      egress_inflight_.fetch_sub(1, std::memory_order_acq_rel);
      notify_drain();
      continue;
    }
    if (stop_.load(std::memory_order_acquire) &&
        egress_inflight_.load(std::memory_order_acquire) == 0) {
      return;
    }
    bo.pause();
  }
}

void NotifierPipeline::commit(engine::NotifierSite::ParsedUplink parsed) {
  const auto t0 = std::chrono::steady_clock::now();
  site_->apply_uplink(std::move(parsed));
  CCVC_METRIC_COUNT("runtime.commits", 1);
  CCVC_METRIC_HIST("runtime.stage.commit_us", wall_us_since(t0));
  committed_.fetch_add(1, std::memory_order_acq_rel);
  notify_drain();  // committed_ is a drain predicate — wake a pending drain()
}

void NotifierPipeline::on_broadcast(SiteId dest, net::Payload bytes) {
  // Runs on the transform thread, inside apply_uplink's broadcast loop.
  // A rising pending_batched_ can only falsify drained() — no notify.
  pending_batched_.fetch_add(1, std::memory_order_acq_rel);  // ccvc-sa: allow(liveness-discipline)
  if (assemblers_[dest].add(std::move(bytes))) flush_dest(dest);
}

void NotifierPipeline::flush_dest(SiteId dest) {
  const std::int64_t n = static_cast<std::int64_t>(assemblers_[dest].size());
  EgressItem item{dest, assemblers_[dest].flush()};
  // inflight rises before pending falls so drained() never observes a
  // frame that is in neither count: the inflight rise only falsifies
  // drained(), and the pending fall cannot make it true while the frame
  // it moved is still inflight — neither write needs a notify (the
  // egress thread notifies after the matching inflight decrement).
  egress_inflight_.fetch_add(1, std::memory_order_acq_rel);  // ccvc-sa: allow(liveness-discipline)
  pending_batched_.fetch_sub(n, std::memory_order_acq_rel);  // ccvc-sa: allow(liveness-discipline)
  Backoff bo;
  // The egress consumer outlives every transform-side producer spin
  // (stop_ is ordered after drain(); docs/BLOCKING.md).
  while (!egress_ring_.try_push(std::move(item))) bo.pause();  // ccvc-sa: allow(liveness-discipline)
}

void NotifierPipeline::flush_all() {
  // O(sites) by job description: the flush boundary visits every
  // destination's assembler once per tick, not per delivered op.
  for (SiteId dest = 1; dest <= num_sites_; ++dest) {  // ccvc-sa: allow(hot-path-budget)
    if (!assemblers_[dest].empty()) flush_dest(dest);
  }
}

bool NotifierPipeline::drained() const {
  return committed_.load(std::memory_order_acquire) ==
             submitted_.load(std::memory_order_acquire) &&
         pending_batched_.load(std::memory_order_acquire) == 0 &&
         egress_inflight_.load(std::memory_order_acquire) == 0;
}

void NotifierPipeline::notify_drain() {
  if (!drain_requested_.load(std::memory_order_acquire)) return;
  {
    // Lock/unlock pairs the notify with the waiter's predicate check.
    const std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void NotifierPipeline::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_requested_.store(true, std::memory_order_release);
  drain_cv_.wait(lock, [this] { return drained(); });
  drain_requested_.store(false, std::memory_order_release);
}

void NotifierPipeline::shutdown() {
  if (threads_.empty()) return;
  drain();
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

}  // namespace ccvc::runtime
