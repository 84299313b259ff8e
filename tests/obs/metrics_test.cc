// Unit tests for the observability subsystem: instrument semantics, registry
// idempotence, the JSON dump/parse round trip, and route-rule names.
#include <gtest/gtest.h>

#include <limits>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/route_trace.h"

namespace past {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10.0);
  g.Add(5.0);
  g.Sub(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // <= 1
  h.Observe(1.0);  // <= 1 (inclusive)
  h.Observe(1.5);  // <= 2
  h.Observe(4.0);  // <= 4 (inclusive)
  h.Observe(9.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);  // overflow bucket
}

TEST(HistogramTest, MeanOfObservations) {
  Histogram h({10.0});
  h.Observe(2.0);
  h.Observe(4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

// Regression: a single NaN (or infinite) sample must not poison `sum` — and
// through it the mean of the whole run. Non-finite samples are rejected into
// the `invalid` counter and leave every bucket untouched.
TEST(HistogramTest, NonFiniteSamplesAreRejectedNotFolded) {
  Histogram h({1.0, 2.0});
  h.Observe(1.5);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.invalid(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 0u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);  // overflow bucket untouched by +inf
}

TEST(MetricsRegistryTest, GetIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(b->value(), 1u);

  Histogram* h1 = registry.GetHistogram("x.hist", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("x.hist", {5.0, 6.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, DumpJsonRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.GetCounter("net.sent")->Inc(42);
  registry.GetGauge("store.used_bytes")->Set(1024.0);
  Histogram* h = registry.GetHistogram("pastry.route.hops", {1.0, 2.0, 4.0});
  h->Observe(1.0);
  h->Observe(3.0);

  const std::string dumped = registry.DumpJson();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(dumped, &parsed));

  const JsonValue* sent = parsed.FindPath("counters/net.sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_DOUBLE_EQ(sent->AsDouble(), 42.0);

  const JsonValue* used = parsed.FindPath("gauges/store.used_bytes");
  ASSERT_NE(used, nullptr);
  EXPECT_DOUBLE_EQ(used->AsDouble(), 1024.0);

  const JsonValue* hops = parsed.FindPath("histograms/pastry.route.hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_DOUBLE_EQ(hops->FindPath("count")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(hops->FindPath("sum")->AsDouble(), 4.0);
  // 3 finite buckets + 1 overflow.
  EXPECT_EQ(hops->FindPath("buckets")->size(), 4u);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  JsonValue out;
  EXPECT_FALSE(JsonValue::Parse("{", &out));
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &out));
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]", &out));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &out));
  EXPECT_TRUE(JsonValue::Parse("{\"a\": [1, 2.5, \"s\", null, true]}", &out));
}

TEST(JsonTest, EscapesAndUnicodeRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("key \"quoted\"\n", "tab\there");
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(obj.Dump(), &parsed));
  const JsonValue* v = parsed.Find("key \"quoted\"\n");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->AsString(), "tab\there");
}

TEST(RouteTraceTest, RuleNamesCoverEveryEnumerator) {
  EXPECT_STREQ(RouteRuleName(RouteRule::kLeafSet), "leaf_set");
  EXPECT_STREQ(RouteRuleName(RouteRule::kRoutingTable), "routing_table");
  EXPECT_STREQ(RouteRuleName(RouteRule::kRareCase), "rare_case");
  EXPECT_STREQ(RouteRuleName(RouteRule::kReplicaShortcut), "replica_shortcut");
}

}  // namespace
}  // namespace past
