// Tests for the obs metrics registry: label identity, histogram bucket
// boundaries, type claiming, the JSON snapshot, and cached series handles.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "obs/metrics.h"

namespace acp::obs {
namespace {

TEST(Labels, SortsAndRendersCanonically) {
  const Labels a{{"reason", "timeout"}, {"algo", "ACP"}};
  const Labels b{{"algo", "ACP"}, {"reason", "timeout"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.render(), R"({algo="ACP",reason="timeout"})");
  EXPECT_EQ(Labels{}.render(), "");
  EXPECT_EQ(a.get("reason"), "timeout");
  EXPECT_EQ(a.get("missing"), "");
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  reg.counter("acp.probe.deaths", {{"reason", "timeout"}, {"algo", "ACP"}}).add(3);
  reg.counter("acp.probe.deaths", {{"algo", "ACP"}, {"reason", "timeout"}}).add(2);
  const Counter* c = reg.find_counter("acp.probe.deaths", {{"reason", "timeout"}, {"algo", "ACP"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(reg.counter_family_total("acp.probe.deaths"), 5u);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry reg;
  reg.counter("deaths", {{"reason", "timeout"}}).add();
  reg.counter("deaths", {{"reason", "qos_violation"}}).add(4);
  EXPECT_EQ(reg.find_counter("deaths", {{"reason", "timeout"}})->value(), 1u);
  EXPECT_EQ(reg.find_counter("deaths", {{"reason", "qos_violation"}})->value(), 4u);
  EXPECT_EQ(reg.counter_family_total("deaths"), 5u);
  EXPECT_EQ(reg.find_counter("deaths", {{"reason", "nope"}}), nullptr);
}

TEST(MetricsRegistry, StableReferencesAcrossGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)).add();
  }
  first.add(7);
  EXPECT_EQ(reg.find_counter("first")->value(), 7u);
}

TEST(MetricsRegistry, NameKindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("acp.request.accepted").add();
  EXPECT_THROW(reg.gauge("acp.request.accepted"), PreconditionError);
  EXPECT_THROW(reg.histogram("acp.request.accepted", {1.0}), PreconditionError);
  reg.gauge("depth").set(1.0);
  EXPECT_THROW(reg.counter("depth"), PreconditionError);
}

TEST(MetricsRegistry, HistogramBoundsMustMatchOnReRegistration) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0}).observe(0.5);
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}).observe(1.5));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), PreconditionError);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  // v lands in the first bucket with v <= bound; above every bound → +inf.
  h.observe(0.0);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(4.5);   // +inf bucket
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.5);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), PreconditionError);
  EXPECT_THROW(Histogram({1.0, 1.0}), PreconditionError);
  EXPECT_THROW(Histogram({}), PreconditionError);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  // q=0 interpolates from the observed minimum inside the first bucket;
  // q=1 is clamped to the observed maximum, never the bucket bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
  // p50 sits exactly at the first bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_GT(h.quantile(0.75), 10.0);
  EXPECT_LE(h.quantile(0.75), 15.0);
}

TEST(Histogram, QuantileEdgeCases) {
  // Empty: no observations → every quantile is 0 (not a bucket bound).
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // Single sample: every quantile is that sample, clamped away from the
  // bucket bounds on both sides.
  Histogram single({1.0, 10.0});
  single.observe(7.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 7.0);

  // All-equal samples: the observed range collapses to a point; the
  // interpolation must not widen it.
  Histogram equal({1.0, 10.0});
  for (int i = 0; i < 50; ++i) equal.observe(3.0);
  EXPECT_DOUBLE_EQ(equal.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(equal.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(equal.quantile(1.0), 3.0);

  EXPECT_THROW(equal.quantile(-0.1), PreconditionError);
  EXPECT_THROW(equal.quantile(1.1), PreconditionError);
}

TEST(MetricsRegistry, MetaAppearsInJsonSnapshot) {
  MetricsRegistry reg;
  reg.set_meta("seed", "42");
  reg.set_meta("git_sha", "abc123");
  reg.counter("c").add();

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"42\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"abc123\""), std::string::npos);
  // Overwrite, not append.
  reg.set_meta("seed", "43");
  EXPECT_EQ(reg.meta().at("seed"), "43");
  EXPECT_EQ(reg.meta().size(), 2u);
}

TEST(MetricsRegistry, JsonSnapshotContainsEverySeries) {
  MetricsRegistry reg;
  reg.counter("acp.request.accepted").add(12);
  reg.counter("acp.probe.deaths", {{"reason", "timeout"}}).add(2);
  reg.gauge("acp.sim.queue_depth").set(17.0);
  reg.histogram("acp.request.setup_time_s", {0.1, 1.0}).observe(0.05);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"acp.request.accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"acp.sim.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"acp.request.setup_time_s\""), std::string::npos);
  // The implicit +inf bucket is spelled out.
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(JsonHelpers, EscapeAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(2.0), "2");
  // NaN/Inf cannot appear in JSON output.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()).find("nan"),
            std::string::npos);
}

TEST(Gauge, TracksExtremes) {
  Gauge g;
  EXPECT_FALSE(g.ever_set());
  g.set(5.0);
  g.set(-1.0);
  g.set(2.0);
  EXPECT_TRUE(g.ever_set());
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.min(), -1.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
}

// ---- Cached series handles -------------------------------------------------

TEST(MetricHandles, NoSeriesExistsBeforeTheFirstWrite) {
  MetricsRegistry reg;
  CounterHandle c(&reg, "acp.test.count");
  GaugeHandle g(&reg, "acp.test.gauge");
  HistogramHandle h(&reg, "acp.test.hist", {1.0, 2.0});
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.series_count(), 0u);  // reading does not create either
  h.observe(1.5);
  g.set(3.0);
  ASSERT_NE(reg.find_histogram("acp.test.hist"), nullptr);
  EXPECT_EQ(reg.find_histogram("acp.test.hist")->count(), 1u);
  ASSERT_NE(reg.find_gauge("acp.test.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("acp.test.gauge")->value(), 3.0);
  EXPECT_EQ(reg.find_counter("acp.test.count"), nullptr);
}

TEST(MetricHandles, AddOfZeroCreatesTheSeries) {
  MetricsRegistry reg;
  CounterHandle c(&reg, "acp.test.count");
  c.add(0);
  const Counter* series = reg.find_counter("acp.test.count");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->value(), 0u);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find(R"("name": "acp.test.count")"), std::string::npos);
}

TEST(MetricHandles, LabelledHandlesHitTheirOwnSeries) {
  MetricsRegistry reg;
  CounterHandle timeout(&reg, "acp.test.deaths", {{"reason", "timeout"}});
  CounterHandle lost(&reg, "acp.test.deaths", {{"reason", "lost"}});
  timeout.add(2);
  lost.add();
  timeout.add();
  EXPECT_EQ(reg.find_counter("acp.test.deaths", {{"reason", "timeout"}})->value(), 3u);
  EXPECT_EQ(reg.find_counter("acp.test.deaths", {{"reason", "lost"}})->value(), 1u);
  EXPECT_EQ(reg.counter_family_total("acp.test.deaths"), 4u);
  // A handle and a by-name call share one series.
  reg.counter("acp.test.deaths", {{"reason", "lost"}}).add(5);
  EXPECT_EQ(lost.value(), 6u);
}

TEST(MetricHandles, ValueReadsTheCount) {
  MetricsRegistry reg;
  CounterHandle writer(&reg, "acp.test.count");
  const CounterHandle reader(&reg, "acp.test.count");
  writer.add(7);
  EXPECT_EQ(writer.value(), 7u);
  EXPECT_EQ(reader.value(), 7u);  // resolved elsewhere, still read
}

TEST(MetricHandles, NullRegistryHandlesAreInert) {
  CounterHandle c(nullptr, "acp.test.count");
  c.add(3);
  EXPECT_EQ(c.value(), 0u);
  HistogramHandle h(nullptr, "acp.test.hist", {1.0});
  h.observe(1.0);
  GaugeHandle g;
  g.set(1.0);
}

}  // namespace
}  // namespace acp::obs
