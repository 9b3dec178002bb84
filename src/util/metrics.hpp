// Low-overhead metrics registry: counters, gauges, and fixed-bucket
// histograms, scraped by the unified bench runner (bench/bench_main) and
// asserted deterministic by the chaos suite.
//
// Design constraints (docs/OBSERVABILITY.md):
//
//  * Hot-path cost is one function-local-static guard check plus a
//    relaxed uint64_t bump — the CCVC_METRIC_* macros resolve the name
//    to an instrument reference once, at the call site's first
//    execution, and never allocate afterwards.
//  * Everything recorded is an integer (histogram inputs included), so a
//    snapshot of a seeded simulation is byte-identical across runs and
//    platforms — no floating-point accumulation order to worry about.
//  * Instruments live in a process-global registry sorted by name;
//    snapshots render in name order regardless of registration order.
//  * Compiling with -DCCVC_NO_METRICS turns every macro into a no-op
//    that still syntax-checks (and "uses") its arguments; the registry
//    itself stays linkable so mixed translation units agree.
//
// Instruments are thread-safe so the threaded runtime backend
// (src/runtime/, docs/THREADING.md) can record from its pipeline stages:
// every update is a relaxed atomic operation (watermark/min/max via CAS
// loops), and the registry map itself is mutex-guarded on the cold
// lookup/snapshot/reset paths only.  Relaxed ordering is sufficient
// because instruments are independent monotone accumulators — snapshots
// taken while threads are quiescent (how bench_main and the equivalence
// harness use them) observe exact totals, and single-threaded simulator
// runs remain byte-deterministic exactly as before.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace ccvc::util::metrics {

/// Monotonically increasing event count.
struct Counter {
  std::atomic<std::uint64_t> value{0};

  void inc(std::uint64_t n = 1) {
    value.fetch_add(n, std::memory_order_relaxed);
  }
};

/// Last-written level plus its high watermark (e.g. queue depth).
struct Gauge {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> watermark{0};

  void set(std::int64_t v) {
    value.store(v, std::memory_order_relaxed);
    raise_watermark(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t v =
        value.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_watermark(v);
  }

 private:
  void raise_watermark(std::int64_t v) {
    std::int64_t seen = watermark.load(std::memory_order_relaxed);
    while (v > seen && !watermark.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
};

/// Fixed power-of-two bucket histogram for sizes and latencies.
///
/// Bucket i counts values v with bit_width(v) == i, i.e. bucket 0 holds
/// v == 0 and bucket i ≥ 1 holds v in [2^(i-1), 2^i).  The layout needs
/// no per-instrument configuration, covers the full uint64_t range, and
/// stays exact-integer (deterministic snapshots).  Latencies are
/// recorded in integer microseconds of simulated time (threaded-runtime
/// stage latencies are the documented wall-clock exception —
/// docs/OBSERVABILITY.md §2).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  void record(std::uint64_t v);

  /// Exactly what `n` calls to record(v) do, in one update of each
  /// field; n == 0 records nothing.
  void record_n(std::uint64_t v, std::uint64_t n);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Loaded copy (plain integers) — safe to iterate while other threads
  /// record; each cell is individually consistent.
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Upper bound (exclusive) of bucket i: 2^i, saturated at uint64 max.
  static std::uint64_t bucket_limit(std::size_t i);

  void reset();

 private:
  static constexpr std::uint64_t kNoMin =
      std::numeric_limits<std::uint64_t>::max();

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kNoMin};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// A plain-integer tally of values bound for one Histogram, for a loop
/// that would otherwise call record() — a handful of atomic RMWs on a
/// shared instrument — once per iteration: add() is a local increment,
/// and record() then costs one Histogram::record_n per distinct value.
/// Values below kSlots are counted per value; a larger one (a
/// full-vector stamp, say) is held as a run while it repeats, and a
/// different large value records the held run first.  Snapshots read
/// exactly as if every value had been recorded one by one.
class Tally {
 public:
  static constexpr std::size_t kSlots = 32;

  explicit Tally(Histogram& h) : h_(h) {}

  void add(std::uint64_t v) {
    if (v < kSlots) {
      ++slots_[static_cast<std::size_t>(v)];
      return;
    }
    if (run_n_ != 0 && v != run_v_) record_run();
    run_v_ = v;
    ++run_n_;
  }

  /// Records everything added since the last call into the histogram.
  void record();

 private:
  void record_run();

  Histogram& h_;
  std::array<std::uint64_t, kSlots> slots_{};
  std::uint64_t run_v_ = 0;
  std::uint64_t run_n_ = 0;
};

/// What CCVC_METRIC_TALLY declares under CCVC_NO_METRICS: nothing.
struct NoTally {
  void add(std::uint64_t /*v*/) {}
  void record() {}
};

/// Looks up (registering on first use) the named instrument.  Names must
/// match ^[a-z0-9_.]+$ — dot-separated `layer.component.metric` per the
/// naming scheme in docs/OBSERVABILITY.md; a malformed name throws
/// ContractViolation.  References stay valid for the process lifetime.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every registered instrument (registrations persist, so
/// call-site references stay valid).  Benches call this between runs.
void reset();

/// Number of registered instruments (all three kinds).
std::size_t instrument_count();

/// Deterministic plain-text snapshot, one instrument per line, sorted by
/// name.  Two equal-seed simulation runs produce byte-identical text.
std::string snapshot_text();

/// The same snapshot as a JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
/// name order.  Consumed by bench/bench_main and tools/bench_report.py.
std::string snapshot_json();

/// Converts a simulated-time duration (milliseconds, net::SimTime) to
/// the integer microseconds the histograms record.
inline std::uint64_t to_us(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace ccvc::util::metrics

// --- hot-path macros --------------------------------------------------
//
// Each macro resolves its instrument once (function-local static
// reference) and then costs one guard-variable load plus the bump.  The
// name argument must be a string literal so call sites are greppable and
// the resolve-once pattern is sound.
//
// With -DCCVC_NO_METRICS the macros evaluate nothing but still "use"
// their arguments via sizeof, so variables referenced only by metrics
// code do not trip -Werror=unused under the stripped build.
#if defined(CCVC_NO_METRICS)

#define CCVC_METRIC_COUNT(name, n) \
  do {                             \
    (void)sizeof(n);               \
  } while (0)
#define CCVC_METRIC_GAUGE_SET(name, v) \
  do {                                 \
    (void)sizeof(v);                   \
  } while (0)
#define CCVC_METRIC_HIST(name, v) \
  do {                            \
    (void)sizeof(v);              \
  } while (0)
#define CCVC_METRIC_TALLY(var, name) ::ccvc::util::metrics::NoTally var

#else

#define CCVC_METRIC_COUNT(name, n)                                    \
  do {                                                                \
    static ::ccvc::util::metrics::Counter& ccvc_metric_instrument =   \
        ::ccvc::util::metrics::counter(name);                         \
    ccvc_metric_instrument.inc(static_cast<std::uint64_t>(n));        \
  } while (0)

#define CCVC_METRIC_GAUGE_SET(name, v)                                \
  do {                                                                \
    static ::ccvc::util::metrics::Gauge& ccvc_metric_instrument =     \
        ::ccvc::util::metrics::gauge(name);                           \
    ccvc_metric_instrument.set(static_cast<std::int64_t>(v));         \
  } while (0)

#define CCVC_METRIC_HIST(name, v)                                     \
  do {                                                                \
    static ::ccvc::util::metrics::Histogram& ccvc_metric_instrument = \
        ::ccvc::util::metrics::histogram(name);                       \
    ccvc_metric_instrument.record(static_cast<std::uint64_t>(v));     \
  } while (0)

// Declares `var`, a metrics::Tally over the named histogram: var.add(v)
// inside a loop, var.record() once after it.
#define CCVC_METRIC_TALLY(var, name)                                  \
  static ::ccvc::util::metrics::Histogram& var##_instrument =         \
      ::ccvc::util::metrics::histogram(name);                         \
  ::ccvc::util::metrics::Tally var(var##_instrument)

#endif  // CCVC_NO_METRICS
