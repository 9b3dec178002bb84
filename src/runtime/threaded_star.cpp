#include "runtime/threaded_star.hpp"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/message.hpp"
#include "runtime/backoff.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ccvc::runtime {

namespace {

// Unbounded per-client inbox of encoded EgressBatch frames.  Unbounded
// on purpose: a client may be blocked in submit() (the central ring is
// full) exactly while the egress thread is delivering to it, and a
// bounded inbox would close a blocking cycle through the pipeline's
// rings (egress -> inbox -> client -> central -> transform -> egress).
// The egress side must therefore never block here.
struct Inbox {
  std::mutex mu;
  std::deque<net::Payload> frames;

  void push(net::Payload frame) {
    const std::lock_guard<std::mutex> lock(mu);
    frames.push_back(std::move(frame));
  }
  bool pop(net::Payload& out) {
    const std::lock_guard<std::mutex> lock(mu);
    if (frames.empty()) return false;
    out = std::move(frames.front());
    frames.pop_front();
    return true;
  }
};

}  // namespace

ThreadedStarReport run_threaded_star(const ThreadedStarConfig& cfg) {
  const std::size_t n = cfg.num_sites;
  CCVC_CHECK_MSG(n >= 1, "need at least one collaborating site");

  std::vector<std::unique_ptr<Inbox>> inboxes(n + 1);
  for (std::size_t i = 1; i <= n; ++i) inboxes[i] = std::make_unique<Inbox>();

  std::atomic<std::uint64_t> batches{0};
  NotifierPipeline pipeline(
      n, cfg.initial_doc, cfg.engine,
      [&](SiteId dest, net::Payload bytes) {
        batches.fetch_add(1, std::memory_order_relaxed);
        inboxes[dest]->push(std::move(bytes));
      },
      cfg.pipeline);

  // Per-site edit streams, forked deterministically on this thread so
  // thread scheduling cannot change what each client generates.
  std::vector<std::uint64_t> seeds(n + 1, 0);
  {
    util::SplitMix64 sm(cfg.seed);
    for (std::size_t i = 1; i <= n; ++i) seeds[i] = sm.next();
  }

  std::atomic<std::size_t> generating{n};
  std::atomic<bool> done{false};
  std::vector<std::string> finals(n + 1);

  std::vector<std::thread> clients;
  clients.reserve(n);
  for (std::size_t c = 1; c <= n; ++c) {
    clients.emplace_back([&, c] {
      const SiteId id = static_cast<SiteId>(c);
      util::Rng rng(seeds[c]);
      engine::ClientSite site(
          id, n, cfg.initial_doc, cfg.engine,
          [&pipeline, id](net::Payload bytes) {
            pipeline.submit(id, std::move(bytes));
          });
      auto drain_inbox = [&] {
        net::Payload frame;
        while (inboxes[c]->pop(frame)) {
          for (const net::Payload& msg : engine::decode_batch(frame)) {
            site.on_center_message(msg);
          }
        }
      };
      for (std::size_t op = 0; op < cfg.ops_per_site; ++op) {
        drain_inbox();
        const std::size_t len = site.text().size();
        if (len > 0 && rng.chance(0.3)) {
          site.erase(rng.index(len), 1);
        } else {
          const char ch =
              static_cast<char>('a' + static_cast<char>(rng.below(26)));
          site.insert(rng.index(len + 1), std::string(1, ch));
        }
      }
      generating.fetch_sub(1, std::memory_order_acq_rel);
      // Consume-only phase: everything in flight still has to land.
      Backoff bo;
      while (!done.load(std::memory_order_acquire)) {
        drain_inbox();
        bo.pause();
      }
      drain_inbox();
      finals[c] = site.text();
    });
  }

  // All submissions precede the drain: clients only submit while
  // generating, and they are all past that phase here.
  Backoff bo;
  while (generating.load(std::memory_order_acquire) > 0) bo.pause();
  pipeline.drain();
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  pipeline.shutdown();

  ThreadedStarReport report;
  report.final_text = pipeline.site().text();
  report.ops_submitted = pipeline.submitted();
  report.batches_delivered = batches.load(std::memory_order_relaxed);
  report.converged = true;
  for (std::size_t c = 1; c <= n; ++c) {
    if (finals[c] != report.final_text) report.converged = false;
  }
  return report;
}

}  // namespace ccvc::runtime
