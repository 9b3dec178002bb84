// Unified bench runner: executes the benchmark suite with pinned seeds,
// scrapes the metrics registry after every run, and prints one
// schema-versioned JSON document ("ccvc-bench/1") to stdout.
// tools/bench_report.py drives it (repeat aggregation, baseline
// comparison, metrics-overhead measurement) and ci/check.sh runs it in
// smoke mode; docs/BENCHMARKS.md documents every benchmark and the
// paper claim it reproduces.
//
// Usage:
//   bench_main [--mode=smoke|full] [--bench=NAME] [--repeats=N]
//
// The legacy bench_* binaries keep printing their human-readable tables;
// this runner exists so results are machine-comparable across commits.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/message.hpp"
#include "engine/reliable_link.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/threaded_star.hpp"
#include "sim/chaos.hpp"
#include "sim/runner.hpp"
#include "util/metrics.hpp"

namespace {

using namespace ccvc;

struct Options {
  bool smoke = false;
  std::string only;       // --bench=NAME filter; empty = all
  int repeats = 0;        // 0 = mode default
};

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Accumulates one repeat's output: domain values plus the scraped
/// metrics registry.
struct RepeatResult {
  std::vector<std::pair<std::string, double>> values;
  std::string metrics_json;

  void add(const char* key, double v) { values.emplace_back(key, v); }
  void add_u64(const char* key, std::uint64_t v) {
    values.emplace_back(key, static_cast<double>(v));
  }
};

std::string json_number(double v) {
  // Integral values print without a fraction so deterministic counters
  // stay byte-stable; everything else gets fixed 3-digit precision.
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

// --- benchmark bodies -------------------------------------------------
//
// Every body runs one seeded simulation and fills a RepeatResult.  The
// driver resets the metrics registry before each call, so the scraped
// snapshot covers exactly one run.  Seeds are fixed constants: two
// invocations of the same benchmark are byte-identical in everything
// but wall_ms.

/// E3 — timestamp bytes on the wire, compressed vs full-vector stamps.
RepeatResult bench_timestamp_overhead(bool smoke) {
  RepeatResult r;
  const std::size_t n = smoke ? 4 : 16;
  for (const auto mode :
       {engine::StampMode::kCompressed, engine::StampMode::kFullVector}) {
    engine::StarSessionConfig cfg;
    cfg.num_sites = n;
    cfg.initial_doc = "group editors maintain replicated documents";
    cfg.engine.stamp_mode = mode;
    cfg.engine.log_verdicts = false;
    cfg.engine.gc_history = true;
    cfg.seed = 1301;

    sim::WorkloadConfig w;
    w.ops_per_site = smoke ? 20 : 60;
    w.seed = 2602;

    const auto rep = sim::run_star(cfg, w);
    const char* tag =
        mode == engine::StampMode::kCompressed ? "compressed" : "full";
    r.add((std::string(tag) + ".stamp_bytes").c_str(),
          static_cast<double>(rep.stamp_bytes));
    r.add((std::string(tag) + ".total_bytes").c_str(),
          static_cast<double>(rep.total_bytes));
    r.add((std::string(tag) + ".avg_stamp_bytes").c_str(),
          rep.avg_stamp_bytes);
    r.add((std::string(tag) + ".converged").c_str(),
          rep.converged ? 1.0 : 0.0);
  }
  return r;
}

/// E9 — operations pushed through the notifier per wall-clock second.
RepeatResult bench_notifier_throughput(bool smoke) {
  RepeatResult r;
  engine::StarSessionConfig cfg;
  cfg.num_sites = smoke ? 4 : 8;
  cfg.initial_doc = "the quick brown fox jumps over the lazy dog";
  cfg.uplink = net::LatencyModel::fixed(2.0);
  cfg.downlink = net::LatencyModel::fixed(2.0);
  cfg.engine.log_verdicts = false;
  cfg.engine.gc_history = true;
  cfg.seed = 1409;

  sim::WorkloadConfig w;
  w.ops_per_site = smoke ? 50 : 400;
  w.mean_think_ms = 5.0;
  w.hotspot_prob = 0.3;
  w.seed = 2818;

  const auto t0 = std::chrono::steady_clock::now();
  const auto rep = sim::run_star(cfg, w);
  const double wall = wall_ms_since(t0);
  r.add_u64("ops", rep.ops_generated);
  r.add("ops_per_wall_sec",
        wall > 0.0 ? static_cast<double>(rep.ops_generated) / wall * 1000.0
                   : 0.0);
  r.add("prop_p50_ms", rep.propagation_p50_ms);
  r.add("prop_p99_ms", rep.propagation_p99_ms);
  r.add("converged", rep.converged ? 1.0 : 0.0);
  return r;
}

/// E9 on the threaded backend: a closed-loop session with real client
/// threads against the pipelined notifier (docs/THREADING.md §5).
/// Wall time is scheduler-dependent, so only wall_ms and ops_per_wall_sec
/// vary between runs; ops and convergence are pinned.
RepeatResult bench_notifier_throughput_threaded(bool smoke) {
  RepeatResult r;
  runtime::ThreadedStarConfig cfg;
  cfg.num_sites = smoke ? 4 : 8;
  cfg.ops_per_site = smoke ? 50 : 400;
  cfg.initial_doc = "the quick brown fox jumps over the lazy dog";
  cfg.engine.log_verdicts = false;
  cfg.engine.gc_history = true;
  cfg.seed = 1409;

  const auto t0 = std::chrono::steady_clock::now();
  const auto rep = runtime::run_threaded_star(cfg);
  const double wall = wall_ms_since(t0);
  r.add_u64("ops", rep.ops_submitted);
  r.add("ops_per_wall_sec",
        wall > 0.0 ? static_cast<double>(rep.ops_submitted) / wall * 1000.0
                   : 0.0);
  r.add_u64("batches", rep.batches_delivered);
  r.add("converged", rep.converged ? 1.0 : 0.0);
  return r;
}

/// Egress batching ablation (PROTOCOL.md §2.8): one recorded simulator
/// downlink stream replayed through the pipeline with max_batch 1
/// (degenerate, one message per frame) and 16, each frame wrapped in a
/// real §2.6 DataFrame so the bytes/op reduction includes the per-frame
/// seq/ack/CRC overhead batching amortizes.
RepeatResult bench_egress_batching(bool smoke) {
  RepeatResult r;
  const std::size_t n = smoke ? 8 : 16;
  engine::EngineConfig ecfg;
  ecfg.log_verdicts = false;
  ecfg.gc_history = true;

  std::vector<std::pair<SiteId, net::Payload>> uplinks;
  std::uint64_t ops = 0;
  {
    engine::StarSessionConfig cfg;
    cfg.num_sites = n;
    cfg.initial_doc = "group editors maintain replicated documents";
    cfg.engine = ecfg;
    cfg.seed = 1693;
    auto session = std::make_unique<engine::StarSession>(cfg);
    for (SiteId i = 1; i <= n; ++i) {
      session->network()
          .channel(i, kNotifierSite)
          .set_receiver([&uplinks, &session, i](const net::Payload& b) {
            uplinks.emplace_back(i, b);
            session->notifier().on_client_message(i, b);
          });
    }
    sim::WorkloadConfig w;
    w.ops_per_site = smoke ? 30 : 100;
    w.hotspot_prob = 0.3;
    w.seed = 3386;
    sim::StarWorkload workload(*session, w);
    workload.start();
    session->run_to_quiescence();
    ops = workload.total_generated();
  }

  const auto replay = [&](std::size_t max_batch,
                          const char* tag) -> std::uint64_t {
    std::uint64_t frames = 0;
    std::uint64_t framed_bytes = 0;
    std::uint64_t msgs = 0;
    std::vector<std::uint64_t> seq(n + 1, 0);
    runtime::PipelineConfig pcfg;
    pcfg.max_batch = max_batch;
    pcfg.flush = runtime::FlushPolicy::kFixed;
    {
      runtime::NotifierPipeline pipeline(
          n, "group editors maintain replicated documents", ecfg,
          [&](SiteId dest, net::Payload batch) {
            frames += 1;
            msgs += engine::decode_batch(batch).size();
            engine::Frame f;
            f.kind = engine::Frame::Kind::kData;
            f.seq = ++seq[dest];
            f.payload = std::move(batch);
            framed_bytes += engine::encode_frame(f).size();
          },
          pcfg);
      for (const auto& [from, bytes] : uplinks) {
        pipeline.submit(from, net::Payload(bytes));
      }
      pipeline.drain();
    }
    r.add_u64((std::string(tag) + ".frames").c_str(), frames);
    r.add_u64((std::string(tag) + ".framed_bytes").c_str(), framed_bytes);
    r.add_u64((std::string(tag) + ".msgs").c_str(), msgs);
    r.add((std::string(tag) + ".bytes_per_op").c_str(),
          ops > 0 ? static_cast<double>(framed_bytes) /
                        static_cast<double>(ops)
                  : 0.0);
    return framed_bytes;
  };
  const std::uint64_t unbatched = replay(1, "unbatched");
  const std::uint64_t batched = replay(16, "batched");
  r.add("bytes_reduction_pct",
        unbatched > 0
            ? 100.0 * (1.0 - static_cast<double>(batched) /
                                 static_cast<double>(unbatched))
            : 0.0);
  r.add_u64("ops", ops);
  return r;
}

/// Chaos: faulty links plus a mid-flight notifier crash; measures the
/// cost of healing (retransmits, WAL replay) and that the run converges.
RepeatResult bench_fault_recovery(bool smoke) {
  RepeatResult r;
  sim::ChaosConfig cfg;
  cfg.num_sites = 4;
  cfg.uplink_faults.drop_prob = 0.05;
  cfg.uplink_faults.dup_prob = 0.02;
  cfg.uplink_faults.corrupt_prob = 0.02;
  cfg.downlink_faults = cfg.uplink_faults;
  cfg.checkpoint_every_ms = 400.0;
  cfg.crash_notifier_at_ms = 700.0;
  cfg.workload.ops_per_site = smoke ? 20 : 60;
  cfg.workload.mean_think_ms = 40.0;
  cfg.seed = 1517;

  const auto rep = sim::run_chaos(cfg);
  r.add("completed", rep.completed ? 1.0 : 0.0);
  r.add("converged", rep.converged ? 1.0 : 0.0);
  r.add_u64("ops", rep.ops_generated);
  r.add_u64("retransmits", rep.links.retransmits);
  r.add_u64("checksum_rejects", rep.links.checksum_rejects);
  r.add_u64("notifier_crashes", rep.notifier_crashes);
  r.add_u64("checkpoints", rep.checkpoints);
  r.add("sim_duration_ms", rep.sim_duration_ms);
  return r;
}

/// Selective repeat vs go-back-N at high loss: identical chaos runs
/// (same seed, same workload) with SACK on and off.  The dominance
/// claim — SACK strictly fewer retransmitted bytes at >= 15% loss —
/// is what docs/FAULTS.md §"Transport" cites.
RepeatResult bench_sack_vs_gbn(bool smoke) {
  RepeatResult r;
  for (const double drop : {0.15, 0.25}) {
    for (const bool gbn : {true, false}) {
      sim::ChaosConfig cfg;
      cfg.num_sites = 4;
      cfg.uplink_faults.drop_prob = drop;
      cfg.downlink_faults.drop_prob = drop;
      cfg.reliability.go_back_n = gbn;
      cfg.workload.ops_per_site = smoke ? 20 : 60;
      cfg.workload.mean_think_ms = 25.0;
      cfg.seed = 1733;

      const auto rep = sim::run_chaos(cfg);
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "%s.drop%02d.",
                    gbn ? "gbn" : "sack", static_cast<int>(drop * 100.0));
      const std::string p = prefix;
      r.add_u64((p + "bytes_retransmitted").c_str(),
                rep.links.bytes_retransmitted);
      r.add_u64((p + "retransmits").c_str(),
                rep.links.retransmits + rep.links.fast_retransmits);
      r.add((p + "sim_duration_ms").c_str(), rep.sim_duration_ms);
      r.add((p + "converged").c_str(), rep.converged ? 1.0 : 0.0);
    }
  }
  return r;
}

/// Hot-standby failover: the same lossy run with and without a
/// mid-flight fail-stop + promotion; the sim-time difference is the
/// user-visible cost of losing the primary.
RepeatResult bench_failover_recovery(bool smoke) {
  RepeatResult r;
  for (const bool failover : {false, true}) {
    sim::ChaosConfig cfg;
    cfg.num_sites = 4;
    cfg.uplink_faults.drop_prob = 0.10;
    cfg.downlink_faults.drop_prob = 0.10;
    cfg.standby = true;
    cfg.failover_at_ms = failover ? 300.0 : -1.0;
    cfg.checkpoint_every_ms = 200.0;
    cfg.workload.ops_per_site = smoke ? 20 : 60;
    cfg.workload.mean_think_ms = 25.0;
    cfg.seed = 1841;

    const auto rep = sim::run_chaos(cfg);
    if (!failover) {
      r.add("baseline.sim_duration_ms", rep.sim_duration_ms);
      r.add("baseline.converged", rep.converged ? 1.0 : 0.0);
      continue;
    }
    r.add("failover.sim_duration_ms", rep.sim_duration_ms);
    r.add("failover.outage_ms", rep.failover_outage_ms);
    r.add_u64("failover.promotions", rep.failover_promotions);
    r.add_u64("failover.edits_deferred", rep.edits_deferred);
    r.add_u64("failover.retransmits", rep.links.retransmits);
    r.add("failover.converged", rep.converged ? 1.0 : 0.0);
  }
  return r;
}

/// E7/E9 — end-to-end WAN session.  tools/bench_report.py compares this
/// benchmark's wall_ms against a -DCCVC_NO_METRICS build to measure the
/// instrumentation overhead (budget: ≤2%, docs/OBSERVABILITY.md).
RepeatResult bench_e2e_session(bool smoke) {
  RepeatResult r;
  engine::StarSessionConfig cfg;
  cfg.num_sites = smoke ? 4 : 16;
  cfg.initial_doc = "Real-time group editors allow a group of users "
                    "to view and edit the same document.";
  cfg.uplink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  cfg.downlink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  cfg.engine.log_verdicts = false;
  cfg.engine.gc_history = true;
  cfg.seed = 1625;

  sim::WorkloadConfig w;
  w.ops_per_site = smoke ? 40 : 150;
  w.mean_think_ms = 40.0;
  w.hotspot_prob = 0.3;
  w.seed = 3250;

  const auto rep = sim::run_star(cfg, w);
  r.add_u64("ops", rep.ops_generated);
  r.add_u64("total_bytes", rep.total_bytes);
  r.add("prop_p50_ms", rep.propagation_p50_ms);
  r.add("prop_p99_ms", rep.propagation_p99_ms);
  r.add("converged", rep.converged ? 1.0 : 0.0);
  return r;
}

struct Benchmark {
  const char* name;
  RepeatResult (*run)(bool smoke);
};

constexpr Benchmark kBenchmarks[] = {
    {"timestamp_overhead", bench_timestamp_overhead},
    {"notifier_throughput", bench_notifier_throughput},
    {"notifier_throughput_threaded", bench_notifier_throughput_threaded},
    {"egress_batching", bench_egress_batching},
    {"fault_recovery", bench_fault_recovery},
    {"sack_vs_gbn", bench_sack_vs_gbn},
    {"failover_recovery", bench_failover_recovery},
    {"e2e_session", bench_e2e_session},
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode=smoke") {
      opt.smoke = true;
    } else if (arg == "--mode=full") {
      opt.smoke = false;
    } else if (arg.rfind("--bench=", 0) == 0) {
      opt.only = arg.substr(std::strlen("--bench="));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      opt.repeats = std::atoi(arg.c_str() + std::strlen("--repeats="));
    } else {
      std::fprintf(stderr,
                   "usage: bench_main [--mode=smoke|full] [--bench=NAME] "
                   "[--repeats=N]\n");
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const int repeats = opt.repeats > 0 ? opt.repeats : (opt.smoke ? 2 : 5);

  std::string out = "{\"schema\":\"ccvc-bench/1\",\"mode\":\"";
  out += opt.smoke ? "smoke" : "full";
  out += "\",\"metrics_compiled_out\":";
#if defined(CCVC_NO_METRICS)
  out += "true";
#else
  out += "false";
#endif
  out += ",\"benchmarks\":[";

  bool first_bench = true;
  bool matched = false;
  for (const Benchmark& b : kBenchmarks) {
    if (!opt.only.empty() && opt.only != b.name) continue;
    matched = true;
    if (!first_bench) out += ",";
    first_bench = false;
    out += "{\"name\":\"";
    out += b.name;
    out += "\",\"repeats\":[";
    for (int rep = 0; rep < repeats; ++rep) {
      util::metrics::reset();
      const auto t0 = std::chrono::steady_clock::now();
      const RepeatResult r = b.run(opt.smoke);
      const double wall = wall_ms_since(t0);
      if (rep > 0) out += ",";
      out += "{\"wall_ms\":";
      out += json_number(wall);
      out += ",\"values\":{";
      bool first_val = true;
      for (const auto& [key, v] : r.values) {
        if (!first_val) out += ",";
        first_val = false;
        out += "\"";
        out += key;
        out += "\":";
        out += json_number(v);
      }
      out += "},\"metrics\":";
      out += util::metrics::snapshot_json();
      out += "}";
    }
    out += "]}";
  }
  out += "]}";

  if (!opt.only.empty() && !matched) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", opt.only.c_str());
    return 2;
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
