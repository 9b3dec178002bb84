// The replay workloads (wide_fanout, hot_contention).
//
// Set-up records one simulated StarSession under a StarWorkload and
// keeps its uplink trace (the notifier's serialization order), every
// destination's downlink stream and the notifier's final checkpoint —
// the record half of sim/equivalence.cpp.  The timed phase replays the
// uplink trace as fast as possible through a fresh NotifierPipeline
// (kPinned), again and again until the time is up, and checks each
// replay byte for byte against the recording.
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common.hpp"
#include "engine/message.hpp"
#include "engine/notifier_site.hpp"
#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "runtime/pipeline.hpp"
#include "sim/workload.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ccvc;
using trace::Name;

ccvc::engine::EngineConfig engine_config() {
  engine::EngineConfig cfg;
  cfg.log_verdicts = false;
  cfg.check_fidelity = false;
  cfg.gc_history = true;
  return cfg;
}

runtime::PipelineConfig pipeline_config(const Options& opt) {
  runtime::PipelineConfig p;
  p.num_shards = static_cast<std::size_t>(opt.num("shards"));
  p.ring_capacity = static_cast<std::size_t>(opt.num("ring_capacity"));
  p.max_batch = static_cast<std::size_t>(opt.num("max_batch"));
  p.commit_order = opt.str("commit") == "pinned" ? runtime::CommitOrder::kPinned
                                                 : runtime::CommitOrder::kFree;
  p.flush = opt.str("flush") == "fixed" ? runtime::FlushPolicy::kFixed
                                        : runtime::FlushPolicy::kAdaptive;
  return p;
}

std::string initial_doc(const Options& opt) {
  util::Rng rng(opt.seed ^ 0xd0c5eedULL);
  return sim::random_text(rng, static_cast<std::size_t>(opt.num("doc_chars")));
}

SerialRun serial_replay(const std::vector<Uplink>& uplinks,
                        std::size_t num_sites, const std::string& doc) {
  SerialRun run;
  run.downlinks.resize(num_sites + 1);
  // No destination gets more messages than there are ops, so the SendFn
  // never grows a vector.
  for (auto& d : run.downlinks) d.reserve(uplinks.size());
  const bool traced = trace::enabled();
  // Entry times of the current broadcast's first and last SendFn call,
  // one clock read per call.
  struct {
    std::int64_t first = 0, last = 0;
    std::uint64_t sends = 0;
  } fan;
  const engine::EngineConfig cfg = engine_config();
  engine::NotifierSite site(
      num_sites, doc, cfg, [&](SiteId dest, net::Payload bytes) {
        if (traced) {
          fan.last = now_ns();
          if (fan.sends == 0) fan.first = fan.last;
        }
        ++fan.sends;
        run.downlinks[dest].push_back(std::move(bytes));
      });
  const auto& transforms = util::metrics::counter("engine.notifier.transforms");
  const std::uint64_t root = traced ? trace::new_id() : 0;
  const std::int64_t start = now_ns();
  for (const Uplink& u : uplinks) {
    if (!traced) {
      site.apply_uplink(engine::NotifierSite::parse_uplink(u.from, u.bytes, cfg));
      continue;
    }
    const std::int64_t t0 = now_ns();
    auto parsed = engine::NotifierSite::parse_uplink(u.from, u.bytes, cfg);
    const std::int64_t t1 = now_ns();
    const OpId op = parsed.msg.id;
    fan = {};
    const std::uint64_t tr0 = transforms.value.load(std::memory_order_relaxed);
    site.apply_uplink(std::move(parsed));
    const std::int64_t t2 = now_ns();
    const std::uint64_t tr =
        transforms.value.load(std::memory_order_relaxed) - tr0;
    trace::emit(Name::kEngineParse, root, t0, t1, op);
    const std::uint64_t apply = trace::new_id();
    if (fan.sends > 0) {
      trace::emit(Name::kEnginePreBroadcast, apply, t1, fan.first, op, tr);
      trace::emit(Name::kEngineFanout, apply, fan.first, fan.last, op,
                  fan.sends);
      trace::emit(Name::kEnginePostBroadcast, apply, fan.last, t2, op);
    }
    trace::emit(apply, Name::kEngineApply, root, t1, t2, op, tr);
  }
  const std::int64_t end = now_ns();
  if (traced) {
    trace::emit(root, Name::kBenchSerialReplay, 0, start, end, {},
                uplinks.size());
  }
  run.seconds = static_cast<double>(end - start) / 1e9;
  run.checkpoint = engine::save_checkpoint(site);
  return run;
}

namespace {

struct Recording {
  std::vector<Uplink> uplinks;
  std::vector<std::vector<net::Payload>> downlinks;  // [dest]
  net::Payload checkpoint;
  bool converged = false;

  bool same_as(const Recording& o) const {
    if (uplinks.size() != o.uplinks.size()) return false;
    for (std::size_t i = 0; i < uplinks.size(); ++i) {
      if (uplinks[i].from != o.uplinks[i].from ||
          uplinks[i].bytes != o.uplinks[i].bytes) {
        return false;
      }
    }
    return downlinks == o.downlinks && checkpoint == o.checkpoint &&
           converged == o.converged;
  }
};

/// Runs the simulator with taps on every channel, as sim/equivalence.cpp
/// does.  Traced, each notifier receive is an engine.notifier_receive and
/// each client receive an engine.client_apply span, both children of
/// the sim.record span `parent`; StarWorkload's client edits and the
/// simulated network are not timed apart, so they are sim self time.
Recording record(const Options& opt, const std::string& doc,
                 std::uint64_t parent) {
  Recording rec;
  const auto n = static_cast<std::size_t>(opt.num("sites"));
  const bool traced = trace::enabled();
  engine::StarSessionConfig scfg;
  scfg.num_sites = n;
  scfg.initial_doc = doc;
  scfg.engine = engine_config();
  scfg.seed = opt.seed;
  scfg.uplink = net::LatencyModel::lognormal(
      opt.num("link_median_ms"), opt.num("link_sigma"), opt.num("link_min_ms"));
  scfg.downlink = scfg.uplink;
  rec.downlinks.resize(n + 1);
  engine::StarSession session(scfg);
  net::Network& net = session.network();
  for (SiteId i = 1; i <= n; ++i) {
    net.channel(i, kNotifierSite).set_receiver([&, i](const net::Payload& b) {
      rec.uplinks.push_back(Uplink{i, b});
      const std::int64_t t0 = traced ? now_ns() : 0;
      session.notifier().on_client_message(i, b);
      if (traced) trace::emit(Name::kEngineNotifierReceive, parent, t0, now_ns(), {}, i);
    });
    net.channel(kNotifierSite, i).set_receiver([&, i](const net::Payload& b) {
      rec.downlinks[i].push_back(b);
      const std::int64_t t0 = traced ? now_ns() : 0;
      session.client(i).on_center_message(b);
      if (traced) trace::emit(Name::kEngineClientApply, parent, t0, now_ns(), {}, i);
    });
  }
  sim::WorkloadConfig w;
  w.ops_per_site = static_cast<std::size_t>(opt.num("ops_per_site"));
  w.mean_think_ms = opt.num("think_ms");
  w.seed = opt.seed;
  sim::StarWorkload workload(session, w);
  workload.start();
  session.run_to_quiescence();
  rec.converged = session.converged();
  rec.checkpoint = engine::save_checkpoint(session.notifier());
  return rec;
}

/// What the benchmark expects each replay to emit, with the operation
/// every expected downlink message belongs to.
struct Expected {
  std::vector<std::vector<net::Payload>> downlinks;  // [dest][k]
  std::vector<std::vector<std::uint32_t>> op;        // [dest][k] -> uplink index
  std::vector<OpId> ids;                             // [uplink index]
  net::Payload checkpoint;
};

Expected expect(const Recording& rec, bool perturb, std::uint64_t seed) {
  Expected ex;
  ex.downlinks = rec.downlinks;
  ex.checkpoint = rec.checkpoint;
  std::unordered_map<OpId, std::uint32_t> index;
  for (std::uint32_t i = 0; i < rec.uplinks.size(); ++i) {
    const OpId id = engine::decode_client_msg(rec.uplinks[i].bytes,
                                              engine::StampMode::kCompressed)
                        .id;
    ex.ids.push_back(id);
    index.emplace(id, i);
  }
  ex.op.resize(ex.downlinks.size());
  for (std::size_t d = 1; d < ex.downlinks.size(); ++d) {
    for (const net::Payload& m : ex.downlinks[d]) {
      ex.op[d].push_back(index.at(
          engine::decode_center_msg(m, engine::StampMode::kCompressed).id));
    }
  }
  if (perturb) {
    // The self-test: one byte of the benchmark's copy of the recorded
    // stream changes, so exactly one operation must be reported failed.
    const std::size_t d = 1 + seed % (ex.downlinks.size() - 1);
    net::Payload& m = ex.downlinks[d][ex.downlinks[d].size() / 2];
    m.back() ^= 0x01;
  }
  return ex;
}

/// Marks failed every operation whose messages differ from `ex`, given
/// the per-destination streams a replay produced.
void check_streams(const std::vector<std::vector<net::Payload>>& got,
                   const Expected& ex, std::vector<std::uint8_t>& bad) {
  for (std::size_t d = 1; d < ex.downlinks.size(); ++d) {
    const auto& want = ex.downlinks[d];
    for (std::size_t k = 0; k < want.size(); ++k) {
      if (k >= got[d].size() || got[d][k] != want[k]) bad[ex.op[d][k]] = 1;
    }
    if (got[d].size() > want.size()) bad.assign(bad.size(), 1);
  }
}

struct PipelineRun {
  double seconds = 0;
  double submit_seconds = 0;
  double retained_mb = 0;
  double frame_bytes = 0;
  std::vector<double> visibility_ms;  // [op]
  std::vector<std::uint8_t> bad;      // [op]
  std::size_t hb_entries = 0;
  std::size_t bridge_entries = 0;
  std::size_t checkpoint_bytes = 0;
};

PipelineRun pipeline_replay(const Options& opt, const Recording& rec,
                            const Expected& ex, const std::string& doc) {
  const std::size_t ops = rec.uplinks.size();
  const std::size_t n = rec.downlinks.size() - 1;
  const bool traced = trace::enabled();
  PipelineRun run;
  run.bad.assign(ops, 0);
  std::vector<std::int64_t> submitted(ops, 0);
  std::vector<std::int64_t> handoff(ops, -1);
  std::vector<std::size_t> cursor(n + 1, 0);
  bool broken = false;  // a frame that does not decode, or one too many

  // The EgressFn runs on the pipeline's egress thread, which does not
  // catch exceptions.  Everything it writes is read only after drain(),
  // which orders it before.
  auto egress = [&](SiteId dest, net::Payload frame) {
    const std::int64_t t = now_ns();
    spin_ns(opt.egress_spin_ns);
    run.frame_bytes += static_cast<double>(frame.size());
    std::size_t msgs = 0;
    try {
      std::size_t& k = cursor[dest];
      for (const net::Payload& m : engine::decode_batch(frame)) {
        if (k >= ex.downlinks[dest].size()) throw std::out_of_range("extra message");
        const std::uint32_t op = ex.op[dest][k];
        if (m != ex.downlinks[dest][k]) run.bad[op] = 1;
        handoff[op] = t;
        ++k;
        ++msgs;
      }
    } catch (const std::exception&) {
      broken = true;
    }
    if (traced) trace::emit(Name::kBenchEgress, 0, t, now_ns(), {}, msgs);
  };

  const double heap0 = heap_mb();
  std::vector<net::Payload> payloads;
  payloads.reserve(ops);
  for (const Uplink& u : rec.uplinks) payloads.push_back(u.bytes);
  {
    runtime::NotifierPipeline pipeline(n, doc, engine_config(), egress,
                                       pipeline_config(opt));
    pin_threads(false);
    const std::uint64_t root = traced ? trace::new_id() : 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < ops; ++i) {
      const std::int64_t s0 = traced ? now_ns() : 0;
      pipeline.submit(rec.uplinks[i].from, std::move(payloads[i]));
      submitted[i] = now_ns();
      if (traced) trace::emit(Name::kRuntimeSubmit, root, s0, submitted[i], ex.ids[i]);
    }
    const std::int64_t drain_start = now_ns();
    pipeline.drain();
    const std::int64_t end = now_ns();
    run.seconds = static_cast<double>(end - start) / 1e9;
    run.submit_seconds = static_cast<double>(drain_start - start) / 1e9;
    if (traced) {
      trace::emit(Name::kRuntimeDrain, root, drain_start, end);
      trace::emit(root, Name::kBenchPipelineReplay, 0, start, end, {}, ops);
      for (std::size_t i = 0; i < ops; ++i) {
        if (handoff[i] >= 0) {
          trace::emit(Name::kRuntimeNotifier, 0, submitted[i], handoff[i], ex.ids[i]);
        }
      }
    }
    payloads = {};  // consumed by submit(); only the array was left
    run.retained_mb = heap_mb() - heap0;
    const engine::NotifierSite& site = pipeline.site();
    const net::Payload ckpt = engine::save_checkpoint(site);
    if (ckpt != ex.checkpoint) run.bad.assign(ops, 1);
    run.checkpoint_bytes = ckpt.size();
    run.hb_entries = site.history().size();
    for (SiteId c = 1; c <= n; ++c) run.bridge_entries += site.outgoing_count(c);
    pipeline.shutdown();
  }
  for (SiteId d = 1; d <= n; ++d) {
    for (std::size_t k = cursor[d]; k < ex.downlinks[d].size(); ++k) {
      run.bad[ex.op[d][k]] = 1;  // never handed off
    }
  }
  if (broken) run.bad.assign(ops, 1);
  run.visibility_ms.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    if (handoff[i] >= 0) {
      run.visibility_ms.push_back(static_cast<double>(handoff[i] - submitted[i]) / 1e6);
    }
  }
  return run;
}

std::uint64_t count_bad(const std::vector<std::uint8_t>& bad) {
  std::uint64_t n = 0;
  for (const std::uint8_t b : bad) n += b;
  return n;
}

}  // namespace

Result run_replay(const Options& opt) {
  Result res;
  const std::string doc = initial_doc(opt);
  const bool traced = opt.trace;

  // --- set-up: record the trace, several times --------------------
  const Registry reg_setup0 = Registry::read();
  std::vector<double> setup_s;
  Recording rec;
  bool setup_ok = true;
  const auto repeats = static_cast<int>(opt.num("setup_repeats"));
  for (int k = 0; k < repeats; ++k) {
    // Spans from the first recording only: the repeats are
    // byte-identical, and the spans of one are hundreds of thousands.
    const bool traced_k = traced && k == 0;
    trace::set_enabled(traced_k);
    const std::uint64_t span = traced_k ? trace::new_id() : 0;
    const std::int64_t t0 = now_ns();
    Recording r = record(opt, doc, span);
    const std::int64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (traced_k) trace::emit(span, Name::kSimRecord, 0, t0, t1, {}, r.uplinks.size());
    trace::set_enabled(false);
    if (k == 0) {
      rec = std::move(r);
      setup_ok = rec.converged;
    } else if (!r.same_as(rec)) {
      setup_ok = false;  // the recording must be a pure function of the seed
    }
  }
  const Registry reg_setup = Registry::read() - reg_setup0;
  const Expected ex = expect(rec, opt.perturb, opt.seed);
  const std::size_t ops = rec.uplinks.size();
  res.values["setup_s"] = median(setup_s);
  res.values["sim.record_s"] = median(setup_s);

  // --- timed phase: pipeline replays until the time is up ---------
  std::vector<double> ops_per_s, vis_p50, vis_p90, bytes_per_op, retained,
      submit_rate, serial_s, pipeline_s, steal;
  std::vector<std::size_t> keep;  // the replays with the least stolen CPU
  PipelineRun last;
  const auto timed = [&](double budget_s, bool with_serial) {
    for (auto* v : {&ops_per_s, &vis_p50, &vis_p90, &bytes_per_op, &retained,
                    &submit_rate, &serial_s, &pipeline_s, &steal}) {
      v->clear();
    }
    const std::int64_t until = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    while (ops_per_s.size() < 3 || now_ns() < until) {
      if (with_serial) {
        const SerialRun s = serial_replay(rec.uplinks, rec.downlinks.size() - 1, doc);
        std::vector<std::uint8_t> bad(ops, 0);
        check_streams(s.downlinks, ex, bad);
        if (s.checkpoint != ex.checkpoint) bad.assign(ops, 1);
        res.attempted += ops;
        res.failed += count_bad(bad);
        serial_s.push_back(s.seconds);
      }
      const std::vector<double> steal0 = steal_ticks();
      last = pipeline_replay(opt, rec, ex, doc);
      const std::vector<double> steal1 = steal_ticks();
      steal.push_back(0);
      for (std::size_t c = 0; c < steal1.size() && c < steal0.size(); ++c) {
        steal.back() += steal1[c] - steal0[c];
      }
      res.attempted += ops;
      res.failed += count_bad(last.bad);
      pipeline_s.push_back(last.seconds);
      ops_per_s.push_back(static_cast<double>(ops) / last.seconds);
      submit_rate.push_back(static_cast<double>(ops) / last.submit_seconds);
      vis_p50.push_back(quantile(last.visibility_ms, 0.50));
      vis_p90.push_back(quantile(last.visibility_ms, 0.90));
      bytes_per_op.push_back(last.frame_bytes / static_cast<double>(ops));
      retained.push_back(last.retained_mb);
    }
    keep = quieter_half(steal);
    std::fprintf(stderr,
                 "%s: %zu replays of %zu ops, ops/s min %.0f median %.0f max %.0f; "
                 "median of the %zu with the least stolen CPU %.0f\n",
                 opt.workload.c_str(), ops_per_s.size(), ops, quantile(ops_per_s, 0),
                 median(ops_per_s), quantile(ops_per_s, 1), keep.size(),
                 median_of(ops_per_s, keep));
    return median_of(ops_per_s, keep);
  };

  const Registry reg0 = Registry::read();
  // The traced run's first half is untraced: the reference for the
  // tracing overhead, and untraced serial-vs-pipeline wall times.
  const double untraced_ops_per_s =
      timed(traced ? opt.seconds / 2 : opt.seconds, traced);
  const Registry reg = Registry::read() - reg0;
  if (!traced) {
    res.values["notifier_ops_per_s"] = untraced_ops_per_s;
    res.values["visibility_p50_ms"] = median_of(vis_p50, keep);
    res.values["visibility_p90_ms"] = median_of(vis_p90, keep);
    res.values["downlink_bytes_per_op"] = median_of(bytes_per_op, keep);
    res.values["stamp_bytes_per_msg"] = reg.stamp_bytes_sum / reg.stamp_bytes_count;
    res.values["retained_mb"] = median_of(retained, keep);
  } else {
    res.values["engine.serial_ops_per_s"] = static_cast<double>(ops) / median(serial_s);
    res.values["runtime.pipeline_overhead_pct"] =
        (median_of(pipeline_s, keep) / median(serial_s) - 1.0) * 100.0;
    util::metrics::reset();
    const Registry t0 = Registry::read();
    trace::set_enabled(true);
    const double traced_ops_per_s = timed(opt.seconds / 2, true);
    trace::set_enabled(false);
    const Registry t = Registry::read() - t0;
    namespace m = util::metrics;
    res.values["bench.trace_overhead_pct"] =
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0;
    res.values["ot.notifier_transforms_per_op"] = t.notifier_transforms / t.notifier_ops;
    res.values["ot.client_transforms_per_op"] =
        reg_setup.client_transforms / reg_setup.client_remote_ops;
    res.values["runtime.commit_us_p50"] =
        histogram_quantile(m::histogram("runtime.stage.commit_us"), 0.5);
    res.values["runtime.ring_depth_max"] = static_cast<double>(
        m::gauge("runtime.ring.depth").watermark.load(std::memory_order_relaxed));
    const double pipeline_ops = static_cast<double>(ops_per_s.size() * ops);
    res.values["runtime.frames_per_op"] = t.batch_flushes / pipeline_ops;
    res.values["runtime.msgs_per_frame"] = t.batch_msgs / t.batch_flushes;
    res.values["engine.retained_hb_entries"] = static_cast<double>(last.hb_entries);
    res.values["engine.retained_bridge_entries"] = static_cast<double>(last.bridge_entries);
    res.values["engine.checkpoint_bytes"] = static_cast<double>(last.checkpoint_bytes);
    res.values["load.achieved_ops_per_s"] = median_of(submit_rate, keep);
    // An as-fast-as-possible submitter is never behind its schedule.
    res.values["load.late_p99_ms"] = 0.0;
    res.values["load.achieved_ratio"] = 1.0;
  }
  if (!setup_ok) res.failed = res.attempted;
  res.correct = res.failed == 0;
  return res;
}

}  // namespace perfbench
