// Good-tree fixture: a miniature threaded pipeline every ccvc_sa
// checker must accept.  Each block is a near-miss for one checker —
// close enough to its bad pattern that a precision regression (closure
// over-merge, write misdetection, order mis-parse) turns this tree red:
//
//   * got_state_      plain write, but confined to the transform closure;
//   * last_egress_    written from TWO closures, but mutex-guarded;
//   * cold_/cold_path allocation + loop, but unreachable from the roots;
//   * log_.push_back  real budget hit carrying a live allow() pragma;
//   * every atomic op spells out its memory order;
//   * g_commits       global written on the hot path, but atomic;
//   * g_verbose       plain global read on the hot path, but written
//                     only by set_verbose(), outside every closure;
//   * batch_.clear()  a member call on the transform path, next to a
//                     free clear() that writes the plain global g_traced:
//                     a member call never reaches a free function, so
//                     g_traced stays outside every closure;
//   * wire::encode    a qualified call on the transform path, next to
//                     a same-named free text::encode that allocates:
//                     a qualified call reaches only the function its
//                     qualifier names, so text::encode's push_back
//                     stays outside every closure;
//   * transform_loop's spins consult stop_, which shutdown() writes
//     from another context (liveness must accept, not flag);
//   * out_ring_       a capacity wait whose edge transform → egress is
//                     acyclic (blocking-graph must accept the edge);
//   * cv_/ready_      predicate-form wait whose predicate writer
//                     reaches a notify on the same cv (liveness accept);
//   * run_threaded_star constructs the pipeline declaration-style: the
//                     call reaches the constructor, but the lambda the
//                     constructor stores (a thread body) runs on the
//                     transform thread, not in the control closure — so
//                     got_state_ keeps its one (transform) writer and no
//                     control ↔ transform cycle appears.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace fx {

std::atomic<std::uint64_t> g_commits{0};
int g_verbose = 0;

void set_verbose(int v) { g_verbose = v; }

int g_traced = 0;

void clear() { g_traced = 0; }

namespace wire {
int encode(int v) { return v + 1; }
}  // namespace wire

namespace text {
std::size_t encode(int v) {
  std::vector<int> out;
  out.push_back(v);
  return out.size();
}
}  // namespace text

struct Ring {
  bool try_pop(int& out);
  bool try_push(int v);
};

class NotifierPipeline {
 public:
  explicit NotifierPipeline(int n);
  std::uint64_t submit(int from);
  void transform_loop();
  void batch_broadcast(int dest);
  void egress_loop();
  void cold_path();
  void wait_ready();
  void shutdown();

 private:
  void note_egress(int dest);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<int> stop_{0};
  std::atomic<int> ready_{0};
  Ring central_;
  Ring out_ring_;
  std::mutex mu_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  int last_egress_ = 0;
  int got_state_ = 0;
  std::vector<int> cold_;
  std::vector<int> log_;
  std::vector<int> batch_;
  std::function<void()> body_;
};

NotifierPipeline::NotifierPipeline(int n) : got_state_(n) {
  body_ = [this] { transform_loop(); };
}

std::uint64_t NotifierPipeline::submit(int from) {
  return submitted_.fetch_add(1, std::memory_order_acq_rel) +
         static_cast<std::uint64_t>(from);
}

void NotifierPipeline::transform_loop() {
  int item = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (central_.try_pop(item)) break;
  }
  // Plain unlocked write — legal because only the transform closure
  // ever writes it.
  got_state_ += wire::encode(item) + g_verbose;
  g_commits.fetch_add(1, std::memory_order_relaxed);
  batch_broadcast(got_state_);
  // Capacity wait that (a) consults stop_, written by shutdown() in
  // another context, and (b) forms the acyclic edge transform → egress
  // (egress pops out_ring_).  Both checkers must accept it.
  while (!out_ring_.try_push(got_state_)) {
    if (stop_.load(std::memory_order_acquire)) break;
  }
}

void NotifierPipeline::batch_broadcast(int dest) {
  batch_.clear();
  note_egress(dest);
}

void NotifierPipeline::egress_loop() {
  int item = 0;
  if (out_ring_.try_pop(item)) note_egress(item);
  // Deliberate, documented allocation: exercises the inline-pragma
  // machinery on the good tree (must stay live-suppressed).
  log_.push_back(1);  // ccvc-sa: allow(hot-path-budget)
}

void NotifierPipeline::note_egress(int dest) {
  // Written from the transform AND egress closures — but every writer
  // locks, which the single-writer checker must accept.
  const std::lock_guard<std::mutex> lock(mu_);
  last_egress_ = dest;
}

void NotifierPipeline::cold_path() {
  // Unreachable from every hot-path/pipeline root: this allocation and
  // loop must NOT be budget findings (closure precision).
  for (std::size_t i = 0; i < 4; ++i) cold_.push_back(1);
}

void NotifierPipeline::wait_ready() {
  // Predicate-form wait: liveness-discipline accepts it because the
  // predicate variable's writer (shutdown) reaches cv_.notify_all().
  std::unique_lock<std::mutex> lock(cv_mu_);
  cv_.wait(lock, [this] {
    return ready_.load(std::memory_order_acquire) != 0;
  });
}

void NotifierPipeline::shutdown() {
  // Writes every flag the tree's spins consult, then notifies: the
  // termination contract the liveness checker demands.
  ready_.store(1, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(cv_mu_);
  }
  cv_.notify_all();
  stop_.store(1, std::memory_order_release);
}

void run_threaded_star() {
  NotifierPipeline pipeline(1);
  pipeline.shutdown();
}

}  // namespace fx
