// Bad-tree fixture, concurrency/budget half: one seeded violation per
// checker.  tests/sa/sa_selftest.py asserts the exact per-checker
// finding counts (EXPECTED_BAD) — nothing more, nothing less:
//
//   * shared_counter_  plain write from producer AND transform closures
//                      (single-writer #1);
//   * g_egress_total   plain global written from the egress closure
//                      (single-writer #2);
//   * flag_.store(1)   atomic op with a defaulted order (atomics-order);
//   * tmp.push_back    allocation on the submit path (hot-path-budget;
//                      the staged HOTPATH.md is generated from this
//                      tree, so only the op finding fires, not drift);
//   * out_ring_ spin   a capacity wait on the egress closure — the
//                      edge-absence assertion the unbounded-inbox rule
//                      compiles to (blocking-graph), and a spin that
//                      consults no termination flag (liveness #1);
//   * go_ spin         a flag wait whose flag nothing ever writes, so
//                      no shutdown()/drain() can cancel it (liveness #2).
#include <atomic>
#include <cstdint>
#include <vector>

namespace fx {

int g_egress_total = 0;

struct OutRing {
  bool try_push(int v);
};

class NotifierPipeline {
 public:
  std::uint64_t submit(int from);
  void transform_loop();
  void on_broadcast(int dest);
  void egress_loop();

 private:
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<int> flag_{0};
  std::atomic<int> go_{0};
  OutRing out_ring_;
  int shared_counter_ = 0;
};

std::uint64_t NotifierPipeline::submit(int from) {
  std::vector<int> tmp;
  tmp.push_back(from);
  shared_counter_ += from;
  return submitted_.fetch_add(1, std::memory_order_acq_rel);
}

void NotifierPipeline::transform_loop() {
  ++shared_counter_;
  flag_.store(1);
  // Flag wait on go_, which nothing in the tree ever writes: the spin
  // is uncancellable (liveness-discipline, spin-no-stop).
  while (!go_.load(std::memory_order_acquire)) {
  }
}

void NotifierPipeline::on_broadcast(int dest) { (void)dest; }

void NotifierPipeline::egress_loop() {
  // Capacity wait attributed to the egress closure: violates the
  // edge-absence assertion (blocking-graph, egress-blocks) AND consults
  // no termination flag (liveness-discipline, spin-no-stop).
  int item = 0;
  while (!out_ring_.try_push(item)) {
  }
  ++g_egress_total;
}

}  // namespace fx
