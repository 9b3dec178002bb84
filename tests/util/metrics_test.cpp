// Metrics registry semantics (src/util/metrics.hpp): counter/gauge/
// histogram behaviour, the bit_width bucket layout, deterministic
// snapshots, name validation, and the CCVC_NO_METRICS compile-out
// (exercised by the sibling TU metrics_nometrics_tu.cpp, which is
// compiled with the definition while this TU is not).  In a whole-tree
// -DCCVC_NO_METRICS build the macro tests below assert the compiled-out
// behaviour instead: nothing is registered, nothing is recorded.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "engine/observer.hpp"
#include "engine/session.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace ccvc::util {

/// Defined in metrics_nometrics_tu.cpp (built with -DCCVC_NO_METRICS):
/// invokes every CCVC_METRIC_* macro under names with the
/// "test.nometrics." prefix, which must never reach the registry.
void metrics_nometrics_probe();

namespace {

#if defined(CCVC_NO_METRICS)
constexpr bool kMacrosCompiledIn = false;
#else
constexpr bool kMacrosCompiledIn = true;
#endif

class MetricsTest : public ::testing::Test {
 protected:
  // The registry is process-global; instruments persist across tests
  // (by design — call sites hold references).  Zero them so each test
  // sees clean values.
  void SetUp() override { metrics::reset(); }
};

TEST_F(MetricsTest, CounterAccumulates) {
  metrics::Counter& c = metrics::counter("test.metrics.counter");
  EXPECT_EQ(c.value, 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value, 42u);
  // Lookup by the same name returns the same instrument.
  EXPECT_EQ(&metrics::counter("test.metrics.counter"), &c);
}

TEST_F(MetricsTest, GaugeTracksWatermark) {
  metrics::Gauge& g = metrics::gauge("test.metrics.gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value, 3);
  EXPECT_EQ(g.watermark, 7);
  g.add(10);
  EXPECT_EQ(g.value, 13);
  EXPECT_EQ(g.watermark, 13);
  g.set(-2);
  EXPECT_EQ(g.value, -2);
  EXPECT_EQ(g.watermark, 13);
}

TEST_F(MetricsTest, HistogramBucketsByBitWidth) {
  metrics::Histogram& h = metrics::histogram("test.metrics.hist");
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bit_width 1 -> bucket 1
  h.record(2);   // bit_width 2 -> bucket 2
  h.record(3);   // bit_width 2 -> bucket 2
  h.record(4);   // bit_width 3 -> bucket 3
  h.record(std::numeric_limits<std::uint64_t>::max());  // bucket 64

  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.buckets()[64], 1u);

  // Bucket i holds values in [2^(i-1), 2^i): its exclusive limit is 2^i.
  EXPECT_EQ(metrics::Histogram::bucket_limit(0), 1u);
  EXPECT_EQ(metrics::Histogram::bucket_limit(3), 8u);
  EXPECT_EQ(metrics::Histogram::bucket_limit(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST_F(MetricsTest, HistogramSumAndEmptyMin) {
  metrics::Histogram& h = metrics::histogram("test.metrics.hist_sum");
  EXPECT_EQ(h.min(), 0u);  // empty histogram reads as all-zero
  EXPECT_EQ(h.sum(), 0u);
  h.record(10);
  h.record(5);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 10u);
}

TEST_F(MetricsTest, MalformedNamesAreRejected) {
  EXPECT_THROW(metrics::counter(""), ContractViolation);
  EXPECT_THROW(metrics::counter("Bad.Name"), ContractViolation);
  EXPECT_THROW(metrics::gauge("has space"), ContractViolation);
  EXPECT_THROW(metrics::histogram("dash-ed"), ContractViolation);
  EXPECT_NO_THROW(metrics::counter("ok.name_2"));
}

TEST_F(MetricsTest, SnapshotTextIsSortedAndDeterministic) {
  // Register out of name order; snapshots must sort regardless.
  metrics::counter("test.snap.zz").inc(2);
  metrics::counter("test.snap.aa").inc(1);
  metrics::gauge("test.snap.mid").set(5);
  metrics::histogram("test.snap.h").record(3);

  const std::string a = metrics::snapshot_text();
  const std::string b = metrics::snapshot_text();
  EXPECT_EQ(a, b);  // pure function of registry state
  EXPECT_LT(a.find("test.snap.aa"), a.find("test.snap.zz"));
  EXPECT_NE(a.find("counter test.snap.aa 1\n"), std::string::npos);
  EXPECT_NE(a.find("gauge test.snap.mid 5 watermark 5\n"), std::string::npos);
  EXPECT_NE(a.find("hist test.snap.h count 1 sum 3 min 3 max 3 b2:1\n"),
            std::string::npos);
}

TEST_F(MetricsTest, SnapshotJsonShape) {
  metrics::counter("test.json.c").inc(7);
  metrics::gauge("test.json.g").set(-3);
  metrics::histogram("test.json.h").record(1);
  const std::string j = metrics::snapshot_json();
  EXPECT_NE(j.find("\"test.json.c\":7"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.g\":{\"value\":-3,\"watermark\":0}"),
            std::string::npos);
  EXPECT_NE(j.find("\"test.json.h\":{\"count\":1,\"sum\":1,\"min\":1,"
                   "\"max\":1,\"buckets\":{\"1\":1}}"),
            std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations) {
  metrics::Counter& c = metrics::counter("test.reset.c");
  c.inc(9);
  const std::size_t n = metrics::instrument_count();
  metrics::reset();
  EXPECT_EQ(c.value, 0u);                       // same instrument, zeroed
  EXPECT_EQ(metrics::instrument_count(), n);    // registration survives
  EXPECT_EQ(&metrics::counter("test.reset.c"), &c);
}

TEST_F(MetricsTest, MacrosResolveOnceAndBump) {
  const std::size_t before = metrics::instrument_count();
  for (int i = 0; i < 3; ++i) {
    CCVC_METRIC_COUNT("test.macro.counter", 2);
    CCVC_METRIC_GAUGE_SET("test.macro.gauge", i);
    CCVC_METRIC_HIST("test.macro.hist", i);
  }
  if (!kMacrosCompiledIn) {
    EXPECT_EQ(metrics::instrument_count(), before);
    return;
  }
  EXPECT_EQ(metrics::counter("test.macro.counter").value, 6u);
  EXPECT_EQ(metrics::gauge("test.macro.gauge").value, 2);
  EXPECT_EQ(metrics::histogram("test.macro.hist").count(), 3u);
  EXPECT_EQ(metrics::instrument_count(), before + 3);
}

void expect_same(const metrics::Histogram& a, const metrics::Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.buckets(), b.buckets());
}

TEST_F(MetricsTest, RecordNEqualsNRecords) {
  metrics::Histogram one_by_one;
  metrics::Histogram batched;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{3},
                                std::uint64_t{17}, std::uint64_t{1} << 40,
                                max}) {
    for (int i = 0; i < 5; ++i) one_by_one.record(v);
    batched.record_n(v, 5);
  }
  expect_same(one_by_one, batched);
  EXPECT_EQ(batched.count(), 25u);
  EXPECT_EQ(batched.min(), 0u);
  EXPECT_EQ(batched.max(), max);
}

TEST_F(MetricsTest, RecordNZeroIsANoOp) {
  metrics::Histogram h;
  h.record_n(9, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);  // still "empty": no min was ever taken
  EXPECT_EQ(h.max(), 0u);
  h.record(4);
  h.record_n(1, 0);
  EXPECT_EQ(h.min(), 4u);
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(MetricsTest, TallyRecordsLikeOneRecordPerValue) {
  // Small values take the per-value slots; values of kSlots and up —
  // a full-vector stamp — take the run, including a run that changes
  // value mid-loop and one left open until record().
  const std::uint64_t values[] = {2,  3,  3,  0,  31, 32, 32, 32, 57,
                                  57, 2,  40, 40, 40, 1u << 20};
  metrics::Histogram reference;
  metrics::Histogram tallied;
  metrics::Tally tally(tallied);
  for (const std::uint64_t v : values) {
    reference.record(v);
    tally.add(v);
  }
  tally.record();
  expect_same(reference, tallied);
  tally.record();  // nothing is recorded twice
  expect_same(reference, tallied);
}

TEST_F(MetricsTest, TallyMacroResolvesTheNamedHistogram) {
  const std::size_t before = metrics::instrument_count();
  for (int round = 0; round < 2; ++round) {
    CCVC_METRIC_TALLY(sizes, "test.macro.tally");
    sizes.add(5);
    sizes.add(5);
    sizes.add(300);
    sizes.record();
  }
  if (!kMacrosCompiledIn) {
    EXPECT_EQ(metrics::instrument_count(), before);
    return;
  }
  const metrics::Histogram& h = metrics::histogram("test.macro.tally");
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 620u);
}

/// Records every stamp the engine reports on the wire, one record() per
/// message: the reference the notifier's per-broadcast tally of
/// engine.wire.stamp_bytes must match exactly.
class StampBytesPerMessage : public engine::EngineObserver {
 public:
  void on_wire(SiteId /*from*/, SiteId /*to*/, std::size_t /*message_bytes*/,
               std::size_t stamp_bytes) override {
    hist.record(stamp_bytes);
  }
  metrics::Histogram hist;
};

void expect_session_stamp_bytes_unchanged(engine::StampMode mode,
                                          std::size_t sites) {
  metrics::reset();
  engine::StarSessionConfig cfg;
  cfg.num_sites = sites;
  cfg.initial_doc = "tally the stamps";
  cfg.engine.stamp_mode = mode;
  const std::size_t before = metrics::instrument_count();
  StampBytesPerMessage per_message;
  engine::StarSession session(cfg, &per_message);
  sim::WorkloadConfig w;
  w.ops_per_site = 6;
  sim::StarWorkload workload(session, w);
  workload.start();
  session.run_to_quiescence();
  ASSERT_TRUE(session.converged());
  ASSERT_GT(per_message.hist.count(), 0u);
  if (!kMacrosCompiledIn) {
    // The session ran on compiled-out macros: it registered nothing.
    EXPECT_EQ(metrics::instrument_count(), before);
    return;
  }
  expect_same(per_message.hist, metrics::histogram("engine.wire.stamp_bytes"));
}

TEST_F(MetricsTest, SessionStampBytesMatchPerMessageRecordsCompressed) {
  expect_session_stamp_bytes_unchanged(engine::StampMode::kCompressed, 6);
}

TEST_F(MetricsTest, SessionStampBytesMatchPerMessageRecordsFullVector) {
  // 40 sites: every full-vector stamp is over Tally::kSlots bytes.
  expect_session_stamp_bytes_unchanged(engine::StampMode::kFullVector, 40);
  if (!kMacrosCompiledIn) return;
  EXPECT_GT(metrics::histogram("engine.wire.stamp_bytes").min(),
            metrics::Tally::kSlots);
}

TEST_F(MetricsTest, NoMetricsTuRegistersNothing) {
  const std::size_t before = metrics::instrument_count();
  metrics_nometrics_probe();
  EXPECT_EQ(metrics::instrument_count(), before);
  // Nothing with the probe's prefix ever reached the registry.
  EXPECT_EQ(metrics::snapshot_text().find("test.nometrics."),
            std::string::npos);
}

TEST_F(MetricsTest, ToUsConversion) {
  EXPECT_EQ(metrics::to_us(0.0), 0u);
  EXPECT_EQ(metrics::to_us(-5.0), 0u);
  EXPECT_EQ(metrics::to_us(1.5), 1500u);
}

}  // namespace
}  // namespace ccvc::util
