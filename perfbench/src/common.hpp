// Shared helpers of the benchmark program: wall clock, order statistics,
// host-steal and heap probes, thread pinning, registry counter snapshots,
// and the result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "net/channel.hpp"
#include "runtime/pipeline.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a fixed process-wide epoch (span timestamps).
std::int64_t now_ns();

/// The steady-clock instant now_ns() reads as `ns`.
Clock::time_point at_ns(std::int64_t ns);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.  Same definition as summarize.py.
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// CPU time the hypervisor has stolen from each CPU of this machine, in
/// clock ticks (/proc/stat), indexed by CPU number.
std::vector<double> steal_ticks();

/// The indices of the quieter half (at least one) of samples whose
/// measurements the host disturbed by `steal` each, in sample order.  On
/// a shared virtual machine stolen CPU time, not the program, swings run
/// times by tens of percent; ranking samples by it keeps the comparison
/// about the program.
std::vector<std::size_t> quieter_half(const std::vector<double>& steal);

/// Median of `v` over the samples `keep` selects.
double median_of(const std::vector<double>& v, const std::vector<std::size_t>& keep);

/// Heap bytes in use, in MiB, over every malloc arena (glibc
/// mallinfo2).  Unlike the resident set it does not depend on which
/// thread's arena freed memory last, so growth readings repeat.
double heap_mb();

/// Pins every thread of the process so that thread placement is the
/// same in every run: the calling thread to the first CPU and the others,
/// in creation order, each to the next CPU (wrapping) — or, with
/// `one_cpu`, all of them to the first CPU.  Call after a pipeline has
/// started its threads.
void pin_threads(bool one_cpu);

/// Busy-waits `ns` nanoseconds (the sensitivity self-test's injected
/// slowdown; 0 is a no-op).
void spin_ns(std::int64_t ns);

/// The registry instruments the benchmark reads, as plain numbers.
/// Subtracting two snapshots gives what happened in between.
struct Registry {
  double notifier_transforms = 0;
  double notifier_ops = 0;
  double client_transforms = 0;
  double client_remote_ops = 0;
  double batch_flushes = 0;
  double batch_msgs = 0;
  double stamp_bytes_sum = 0;
  double stamp_bytes_count = 0;

  static Registry read();
  Registry operator-(const Registry& o) const;
};

/// p-quantile of a power-of-two bucket histogram from the registry,
/// interpolated linearly inside the bucket that holds it.
double histogram_quantile(const ccvc::util::metrics::Histogram& h, double q);

/// What one workload run reports to main(): the correctness tally and a
/// flat name -> number map (end-to-end metrics untraced, raw per-layer
/// inputs traced).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

/// Parameters of one run, taken from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool perturb = false;
  std::int64_t egress_spin_ns = 0;
  std::map<std::string, std::string> params;

  double num(const std::string& key) const;
  std::string str(const std::string& key) const;
};

/// Protocol switches of every workload: verdict logging off (its HB scan
/// is a checker, not the control) and history GC on.
ccvc::engine::EngineConfig engine_config();

/// Pipeline shape from the workload parameters.
ccvc::runtime::PipelineConfig pipeline_config(const Options& opt);

/// The shared initial document, a pure function of the seed.
std::string initial_doc(const Options& opt);

/// One uplink payload in the notifier's serialization order.
struct Uplink {
  ccvc::SiteId from = 0;
  ccvc::net::Payload bytes;
};

/// The L1 replay: one serial NotifierSite fed through parse_uplink /
/// apply_uplink on the calling thread.  Traced, it records the engine.*
/// spans, timing the benchmark's own SendFn calls.
struct SerialRun {
  double seconds = 0;
  std::vector<std::vector<ccvc::net::Payload>> downlinks;  // [dest]
  ccvc::net::Payload checkpoint;
};
SerialRun serial_replay(const std::vector<Uplink>& uplinks,
                        std::size_t num_sites, const std::string& doc);

Result run_replay(const Options& opt);
Result run_live(const Options& opt);

}  // namespace perfbench
