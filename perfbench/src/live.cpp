// The live_viewers workload: an open loop against the threaded notifier.
//
// One generator thread hosts every live ClientSite replica.  A few of
// them write; the rest are read-only viewers, which never generate and
// so never acknowledge anything — the notifier's retained state grows
// with every operation.  Edits arrive as a Poisson stream whose due
// times are fixed in advance from the seed; each is timed from its due
// time, never from when it was actually sent, so a stall that delays
// later edits is charged to them.  The generator sleeps until the next
// due time or until the EgressFn hands it a frame (a busy-waiting
// generator made tail latency swing by an order of magnitude).
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include <sys/prctl.h>

#include "common.hpp"
#include "engine/client_site.hpp"
#include "engine/message.hpp"
#include "engine/snapshot.hpp"
#include "runtime/pipeline.hpp"
#include "sim/workload.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ccvc;
using trace::Name;

namespace {

/// One edit of the open-loop schedule; a pure function of the seed.
struct PlannedOp {
  std::int64_t due_ns = 0;  // offset from the phase start
  SiteId writer = 0;
  bool insert = true;
  std::size_t len = 1;
  double where = 0;  // position as a fraction of the writer's document
  std::string text;
};

std::vector<PlannedOp> make_plan(util::Rng& rng, double seconds, double rate,
                                 std::size_t writers) {
  std::vector<PlannedOp> plan;
  double t = 0;
  for (;;) {
    t += rng.exponential(1.0 / rate);
    if (t >= seconds) return plan;
    PlannedOp p;
    p.due_ns = static_cast<std::int64_t>(t * 1e9);
    p.writer = static_cast<SiteId>(1 + rng.index(writers));
    p.insert = rng.chance(0.7);
    p.len = 1 + static_cast<std::size_t>(rng.below(8));
    p.where = rng.uniform01();
    p.text = sim::random_text(rng, p.len);
    plan.push_back(std::move(p));
  }
}

constexpr std::int64_t kWindowNs = 500'000'000;

/// What one phase of the open loop measured.
struct Phase {
  // Visibility is due time -> last other replica executed.  Each
  // quantile is taken per 0.5-s window of due time (1,000 ops at the
  // default rate) and reported as the median over the quieter half of
  // the windows, ranked by the CPU time the host stole from the
  // session's CPU during each.  On a shared virtual machine that steal
  // comes in bursts that swing a whole-run p99 by an order of magnitude
  // from run to run, and even the quiet windows' p99 by 40% between
  // busy and calm hours, so the tail reported is the p90; a change that
  // lengthens the program's own tail lengthens it in the quiet windows
  // too.  The p99 goes to the log.
  double visibility_p50_ms = 0;
  double visibility_p90_ms = 0;
  double visibility_p99_ms = 0;
  double pooled_p99_ms = 0;  // over every op
  std::vector<double> late_ms;        // due -> generation start
  double ops_per_s = 0;               // ops made visible per second
  double achieved_ops_per_s = 0;      // ops generated per second
  double frame_bytes = 0;
  double retained_mb = 0;
  std::uint64_t failed = 0;
};

class LiveSession {
 public:
  LiveSession(const Options& opt, const std::string& doc, bool keep_log)
      : opt_(opt),
        n_(static_cast<std::size_t>(opt.num("sites"))),
        keep_log_(keep_log),
        downlinks_(n_ + 1),
        pipeline_(n_, doc, engine_config(),
                  [this](SiteId dest, net::Payload frame) {
                    on_egress(dest, std::move(frame));
                  },
                  pipeline_config(opt)) {
    const auto writers = static_cast<std::size_t>(opt.num("writers"));
    replicas_.resize(n_ + 1);
    for (SiteId i = 1; i <= n_; ++i) {
      engine::ClientSite::SendFn send;
      if (i <= writers) send = [this, i](net::Payload b) { on_uplink(i, std::move(b)); };
      else send = [](net::Payload) { throw std::logic_error("a viewer sent"); };
      replicas_[i] = std::make_unique<engine::ClientSite>(i, n_, doc, engine_config(),
                                                          std::move(send));
    }
    // Every thread on one CPU.  The open loop needs a few percent of
    // one CPU, and on a shared virtual machine a cross-CPU wake-up is an
    // IPI whose latency, like the host's CPU steal, swings from run to
    // run; on one CPU the pipeline's hops are plain context switches.
    // With one thread per CPU, as the replays place them, some runs fell
    // into a mode with a several times longer visibility tail.  The cost:
    // this workload cannot show a change that adds parallelism.
    pin_threads(true);
  }

  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Runs `plan` from now; returns once every op has been executed by
  /// every other replica (or a deadline well past the last due time).
  Phase run(const std::vector<PlannedOp>& plan);

  /// Every replica holds the notifier's text.
  bool converged() {
    const std::string text = pipeline_.site().text();
    for (SiteId i = 1; i <= n_; ++i) {
      if (replicas_[i]->text() != text) return false;
    }
    return true;
  }

  /// Replays the uplink log through a serial NotifierSite and checks it
  /// emits what the live replicas received and ends in the live
  /// notifier's state (commit order is submit order: one producer, one
  /// shard, FIFO rings).  Returns the number of mismatching streams.
  std::uint64_t serial_check(const std::string& doc, double& seconds) {
    const SerialRun s = serial_replay(uplinks_, n_, doc);
    seconds = s.seconds;
    std::uint64_t bad = 0;
    for (SiteId d = 1; d <= n_; ++d) bad += s.downlinks[d] != downlinks_[d];
    bad += s.checkpoint != engine::save_checkpoint(pipeline_.site());
    return bad;
  }

  const engine::NotifierSite& notifier() { return pipeline_.site(); }

 private:
  struct Frame {
    SiteId dest = 0;
    net::Payload bytes;
    std::int64_t handoff_ns = 0;
  };
  struct OpState {
    OpId id;
    std::int64_t due = 0, start = 0, submitted = 0, last_handoff = 0,
                 visible = -1;
    std::size_t executed = 0;
  };

  // Egress thread.
  void on_egress(SiteId dest, net::Payload frame) {
    const std::int64_t t = now_ns();
    spin_ns(opt_.egress_spin_ns);
    bool was_empty = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      was_empty = inbox_.empty();
      inbox_.push_back(Frame{dest, std::move(frame), t});
    }
    // The generator takes the whole inbox at once, so only the push
    // into an empty inbox needs to wake it.
    if (was_empty) cv_.notify_one();
    if (trace::enabled()) trace::emit(Name::kBenchEgress, 0, t, now_ns());
  }

  // Generator thread, inside ClientSite::insert/erase.
  void on_uplink(SiteId from, net::Payload bytes) {
    if (keep_log_) uplinks_.push_back(Uplink{from, bytes});
    const std::int64_t s0 = now_ns();
    pipeline_.submit(from, std::move(bytes));
    ops_[current_].submitted = now_ns();
    if (trace::enabled()) {
      trace::emit(Name::kRuntimeSubmit, generate_span_, s0, ops_[current_].submitted);
    }
  }

  void generate(const PlannedOp& p, std::size_t i);
  void deliver(std::vector<Frame>& frames);

  const Options& opt_;
  const std::size_t n_;
  const bool keep_log_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Frame> inbox_;  // guarded by mu_

  // Generator-thread state.
  std::vector<std::unique_ptr<engine::ClientSite>> replicas_;  // [site]
  std::vector<OpState> ops_;                                   // [plan index]
  std::unordered_map<OpId, std::uint32_t> index_;              // id -> plan index
  std::size_t current_ = 0;
  std::uint64_t generate_span_ = 0;
  std::size_t outstanding_ = 0;
  double frame_bytes_ = 0;
  bool perturbed_ = false;
  std::vector<Uplink> uplinks_;                          // keep_log_ only
  std::vector<std::vector<net::Payload>> downlinks_;     // keep_log_ only

  // Last member: its threads join before anything they touch goes away.
  runtime::NotifierPipeline pipeline_;
};

void LiveSession::generate(const PlannedOp& p, std::size_t i) {
  OpState& st = ops_[i];
  engine::ClientSite& c = *replicas_[p.writer];
  const std::size_t size = c.document().size();
  st.start = now_ns();
  current_ = i;
  const bool traced = trace::enabled();
  const std::uint64_t load_span = traced ? trace::new_id() : 0;
  generate_span_ = traced ? trace::new_id() : 0;
  OpId id;
  if (p.insert || size == 0) {
    const auto pos = static_cast<std::size_t>(p.where * static_cast<double>(size + 1));
    id = c.insert(std::min(pos, size), p.text);
  } else {
    const std::size_t len = std::min(p.len, size);
    const auto pos = static_cast<std::size_t>(p.where * static_cast<double>(size - len + 1));
    id = c.erase(std::min(pos, size - len), len);
  }
  const std::int64_t generated = now_ns();
  st.id = id;
  index_.emplace(id, static_cast<std::uint32_t>(i));
  if (traced) {
    trace::emit(Name::kLoadLate, 0, st.due, st.start, id);
    trace::emit(generate_span_, Name::kEngineClientGenerate, load_span, st.start,
                generated, id);
    trace::emit(load_span, Name::kLoadGenerate, 0, st.start, now_ns(), id);
  }
}

void LiveSession::deliver(std::vector<Frame>& frames) {
  const bool traced = trace::enabled();
  for (Frame& f : frames) {
    const std::int64_t f0 = traced ? now_ns() : 0;
    const std::uint64_t frame_span = traced ? trace::new_id() : 0;
    frame_bytes_ += static_cast<double>(f.bytes.size());
    for (net::Payload& m : engine::decode_batch(f.bytes)) {
      const OpId id = engine::decode_center_msg(m, engine::StampMode::kCompressed).id;
      const std::uint32_t i = index_.at(id);
      OpState& st = ops_[i];
      st.last_handoff = std::max(st.last_handoff, f.handoff_ns);
      if (opt_.perturb && !perturbed_ && f.dest == n_ && i == ops_.size() / 2) {
        perturbed_ = true;  // the self-test: one viewer misses one message
        continue;
      }
      const std::int64_t a0 = now_ns();
      replicas_[f.dest]->on_center_message(m);
      const std::int64_t a1 = now_ns();
      if (traced) {
        trace::emit(Name::kRuntimeInboxWait, 0, f.handoff_ns, a0, id, f.dest);
        trace::emit(Name::kEngineClientApply, frame_span, a0, a1, id, f.dest);
      }
      if (keep_log_) downlinks_[f.dest].push_back(std::move(m));
      if (++st.executed == n_ - 1) {
        st.visible = a1;
        --outstanding_;
      }
    }
    if (traced) trace::emit(frame_span, Name::kLoadDeliver, 0, f0, now_ns(), {}, f.dest);
  }
  frames.clear();
}

Phase LiveSession::run(const std::vector<PlannedOp>& plan) {
  Phase ph;
  ops_.assign(plan.size(), OpState{});
  index_.clear();
  index_.reserve(plan.size());
  outstanding_ = plan.size();
  frame_bytes_ = 0;
  const double heap0 = heap_mb();
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < plan.size(); ++i) ops_[i].due = t0 + plan[i].due_ns;
  const std::int64_t last_due = plan.empty() ? t0 : ops_.back().due;
  const std::int64_t deadline = last_due + 10'000'000'000;  // 10 s grace
  std::vector<Frame> local;
  std::size_t next = 0;
  // Steal of the session's CPU at each window boundary (kWindowNs apart).
  std::vector<double> boundary_steal{steal_ticks().at(0)};
  const auto mark_windows = [&] {
    while (now_ns() >= t0 + static_cast<std::int64_t>(boundary_steal.size()) * kWindowNs) {
      boundary_steal.push_back(steal_ticks().at(0));
    }
  };
  while (outstanding_ > 0 && now_ns() < deadline) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const std::int64_t wake =
          next < plan.size() ? ops_[next].due : now_ns() + 50'000'000;
      cv_.wait_until(lock, at_ns(wake), [this] { return !inbox_.empty(); });
      local.swap(inbox_);
    }
    deliver(local);
    while (next < plan.size() && now_ns() >= ops_[next].due) {
      generate(plan[next], next);
      ++next;
    }
    mark_windows();
  }
  boundary_steal.push_back(steal_ticks().at(0));
  const std::int64_t drain_start = now_ns();
  pipeline_.drain();
  if (trace::enabled()) trace::emit(Name::kRuntimeDrain, 0, drain_start, now_ns());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    local.swap(inbox_);
  }
  deliver(local);

  std::int64_t last_visible = t0;
  std::int64_t last_start = t0;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const OpState& st = ops_[i];
    if (st.visible < 0) {
      ++ph.failed;
      continue;
    }
    const double vis_ms = static_cast<double>(st.visible - st.due) / 1e6;
    const auto w = static_cast<std::size_t>(plan[i].due_ns / kWindowNs);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(vis_ms);
    ph.late_ms.push_back(static_cast<double>(st.start - st.due) / 1e6);
    last_visible = std::max(last_visible, st.visible);
    last_start = std::max(last_start, st.start);
    if (trace::enabled()) {
      trace::emit(Name::kRuntimeNotifier, 0, st.submitted, st.last_handoff, st.id);
    }
  }
  std::vector<double> p50, p90, p99, steal, all;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    p50.push_back(quantile(windows[w], 0.50));
    p90.push_back(quantile(windows[w], 0.90));
    p99.push_back(quantile(windows[w], 0.99));
    const std::size_t end = std::min(w + 1, boundary_steal.size() - 1);
    steal.push_back(boundary_steal[end] - boundary_steal[std::min(w, end)]);
    all.insert(all.end(), windows[w].begin(), windows[w].end());
  }
  const std::vector<std::size_t> keep = quieter_half(steal);
  ph.visibility_p50_ms = median_of(p50, keep);
  ph.visibility_p90_ms = median_of(p90, keep);
  ph.visibility_p99_ms = median_of(p99, keep);
  ph.pooled_p99_ms = quantile(all, 0.99);
  const double ops = static_cast<double>(plan.size());
  ph.ops_per_s = ops / (static_cast<double>(last_visible - t0) / 1e9);
  const double span_s =
      std::max(static_cast<double>(last_start - t0), static_cast<double>(last_due - t0));
  ph.achieved_ops_per_s = ops / (span_s / 1e9);
  ph.frame_bytes = frame_bytes_;
  index_ = {};  // the benchmark's own bookkeeping, not retained state
  ph.retained_mb = heap_mb() - heap0;
  return ph;
}

}  // namespace

Result run_live(const Options& opt) {
  Result res;
  // Sleep precisely: the default 50 us timer slack would make the
  // generator late by design.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const std::string doc = initial_doc(opt);
  const double rate = opt.num("rate_ops_per_s");
  const auto writers = static_cast<std::size_t>(opt.num("writers"));
  util::Rng root(opt.seed);
  util::Rng warm_rng = root.fork();
  util::Rng plan_rng = root.fork();
  const std::vector<PlannedOp> warmup =
      make_plan(warm_rng, opt.num("warmup_s"), rate, writers);
  const bool traced = opt.trace;
  const double phase_s = traced ? opt.seconds / 2 : opt.seconds;
  const std::vector<PlannedOp> plan = make_plan(plan_rng, phase_s, rate, writers);

  // Set-up: build the session and warm it up (caches, lazy registry
  // lookups, first-touch pages), several times; the last one is kept.
  const auto setup = [&](bool keep_log) {
    std::vector<double> times;
    std::unique_ptr<LiveSession> s;
    const auto repeats = static_cast<int>(opt.num("setup_repeats"));
    for (int k = 0; k < repeats; ++k) {
      s.reset();
      const std::int64_t t0 = now_ns();
      s = std::make_unique<LiveSession>(opt, doc, keep_log);
      const Phase w = s->run(warmup);
      times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      res.attempted += warmup.size();
      res.failed += w.failed;
    }
    res.values["setup_s"] = median(times);
    return s;
  };
  const auto finish = [&](LiveSession& s, const Phase& ph) {
    res.attempted += plan.size();
    res.failed += s.converged() ? ph.failed : plan.size();
  };

  std::unique_ptr<LiveSession> session = setup(false);
  const Registry reg0 = Registry::read();
  const Phase ph = session->run(plan);
  const Registry reg = Registry::read() - reg0;
  finish(*session, ph);
  const double ops = static_cast<double>(plan.size());
  std::fprintf(stderr,
               "live_viewers: %zu ops, visibility p50 %.3f ms p90 %.3f ms p99 %.3f ms "
               "(0.5-s windows with the least stolen CPU; pooled p99 %.3f ms), "
               "generator late p99 %.3f ms, achieved/offered %.4f\n",
               plan.size(), ph.visibility_p50_ms, ph.visibility_p90_ms,
               ph.visibility_p99_ms, ph.pooled_p99_ms,
               quantile(ph.late_ms, 0.99),
               ph.achieved_ops_per_s / rate);
  if (!traced) {
    res.values["notifier_ops_per_s"] = ph.ops_per_s;
    res.values["visibility_p50_ms"] = ph.visibility_p50_ms;
    res.values["visibility_p90_ms"] = ph.visibility_p90_ms;
    res.values["downlink_bytes_per_op"] = ph.frame_bytes / ops;
    res.values["stamp_bytes_per_msg"] = reg.stamp_bytes_sum / reg.stamp_bytes_count;
    res.values["retained_mb"] = ph.retained_mb;
  } else {
    // A fresh session for the traced phase, so neither phase inherits
    // the other's retained state.
    session.reset();
    session = setup(true);
    util::metrics::reset();
    const Registry t0 = Registry::read();
    trace::set_enabled(true);
    const std::int64_t p0 = now_ns();
    const Phase tp = session->run(plan);
    trace::emit(Name::kBenchLivePhase, 0, p0, now_ns(), {}, plan.size());
    finish(*session, tp);
    const Registry t = Registry::read() - t0;
    // The serial replay of the whole session's log, once traced for the
    // engine.* spans and once untraced for its wall time.
    double serial_s = 0;
    std::uint64_t bad_streams = session->serial_check(doc, serial_s);
    trace::set_enabled(false);
    bad_streams += session->serial_check(doc, serial_s);
    res.values["engine.serial_ops_per_s"] =
        static_cast<double>(warmup.size() + plan.size()) / serial_s;
    // An open loop has no wall time comparable to a serial replay's.
    res.values["runtime.pipeline_overhead_pct"] = 0.0;
    res.values["sim.record_s"] = 0.0;  // nothing is recorded
    if (bad_streams > 0) res.failed = res.attempted;
    namespace m = util::metrics;
    const engine::NotifierSite& site = session->notifier();
    std::size_t bridge = 0;
    for (SiteId c = 1; c <= site.num_sites(); ++c) bridge += site.outgoing_count(c);
    res.values["bench.trace_overhead_pct"] =
        (tp.visibility_p50_ms / ph.visibility_p50_ms - 1.0) * 100.0;
    res.values["ot.notifier_transforms_per_op"] = t.notifier_transforms / t.notifier_ops;
    res.values["ot.client_transforms_per_op"] = t.client_transforms / t.client_remote_ops;
    res.values["runtime.commit_us_p50"] =
        histogram_quantile(m::histogram("runtime.stage.commit_us"), 0.5);
    res.values["runtime.ring_depth_max"] = static_cast<double>(
        m::gauge("runtime.ring.depth").watermark.load(std::memory_order_relaxed));
    res.values["runtime.frames_per_op"] = t.batch_flushes / ops;
    res.values["runtime.msgs_per_frame"] = t.batch_msgs / t.batch_flushes;
    res.values["engine.retained_hb_entries"] = static_cast<double>(site.history().size());
    res.values["engine.retained_bridge_entries"] = static_cast<double>(bridge);
    res.values["engine.checkpoint_bytes"] =
        static_cast<double>(engine::save_checkpoint(site).size());
    res.values["load.achieved_ops_per_s"] = tp.achieved_ops_per_s;
    res.values["load.late_p99_ms"] = quantile(tp.late_ms, 0.99);
    res.values["load.achieved_ratio"] = tp.achieved_ops_per_s / rate;
  }
  res.correct = res.failed == 0;
  return res;
}

}  // namespace perfbench
