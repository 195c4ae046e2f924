#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.h"
#include "common/status.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace dbg4eth {
namespace obs {
namespace {

// --------------------------------------------------------------------------
// Counter / Gauge
// --------------------------------------------------------------------------

TEST(CounterTest, IncrementsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 100000; ++i) counter.Inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), 800000u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 10.0);
  gauge.Add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.5);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  // Integer-valued doubles below 2^53 add exactly, so the CAS loop must
  // not lose a single increment.
  EXPECT_DOUBLE_EQ(gauge.Value(), 4000.0);
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

HistogramConfig SmallConfig() {
  HistogramConfig config;
  config.min_value = 1.0;
  config.growth = 2.0;
  config.num_buckets = 4;  // Bounds 1, 2, 4, 8, 16, +Inf.
  return config;
}

TEST(HistogramTest, TracksExactCountSumMinMax) {
  Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.Record(i);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
}

TEST(HistogramTest, PercentilesAreOrderedAndWithinBucketError) {
  Histogram histogram;  // Default latency layout: +-9% bucket error.
  for (int i = 1; i <= 100; ++i) histogram.Record(i);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 50.0, 50.0 * 0.10);
  EXPECT_NEAR(p95, 95.0, 95.0 * 0.10);
  EXPECT_NEAR(p99, 99.0, 99.0 * 0.10);
  // Quantiles never escape the observed range.
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p99, snap.max);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram histogram;
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, UnderflowAndOverflowLandInEdgeBuckets) {
  Histogram histogram(SmallConfig());
  histogram.Record(0.01);  // Below min_value: underflow bucket.
  histogram.Record(1e9);   // Above the top bound: overflow bucket.
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.buckets.front(), 1u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  // Underflow quantile reports the observed min, overflow the observed
  // max (those buckets have no usable midpoint).
  EXPECT_DOUBLE_EQ(snap.Percentile(0.25), 0.01);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 1e9);
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < 10000; ++i) {
        histogram.Record(static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 80000u);
  // 8 threads x 100 full cycles of sum(1..100) = 8 * 100 * 5050; every
  // addend is an integer-valued double, so the striped sums are exact.
  EXPECT_DOUBLE_EQ(snap.sum, 4040000.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ScopedTimerTest, RecordsOnceIntoHistogram) {
  Histogram histogram;
  {
    ScopedTimer timer(&histogram);
    timer.Stop();
    timer.Stop();  // Idempotent: the destructor must not record again.
  }
  EXPECT_EQ(histogram.Count(), 1u);
  ScopedTimer noop(nullptr);  // Null histogram: records nowhere.
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a1 = registry.CounterAt("a_total", "help", {{"k", "1"}});
  Counter* a2 = registry.CounterAt("a_total", "help", {{"k", "1"}});
  Counter* b = registry.CounterAt("a_total", "help", {{"k", "2"}});
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  Histogram* h1 = registry.HistogramAt("h_us", "help");
  Histogram* h2 = registry.HistogramAt("h_us", "help");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicallyOrdered) {
  MetricsRegistry registry;
  registry.CounterAt("zzz_total", "last");
  registry.GaugeAt("aaa_depth", "first");
  registry.CounterAt("mmm_total", "middle", {{"b", "2"}});
  registry.CounterAt("mmm_total", "middle", {{"a", "1"}});
  const auto families = registry.TakeSnapshot();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0].name, "aaa_depth");
  EXPECT_EQ(families[1].name, "mmm_total");
  EXPECT_EQ(families[2].name, "zzz_total");
  ASSERT_EQ(families[1].instruments.size(), 2u);
  EXPECT_LT(families[1].instruments[0].labels,
            families[1].instruments[1].labels);
}

TEST(MetricsRegistryTest, ConcurrentLookupsAndRecordsAreSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string label = std::to_string(t % 2);
      for (int i = 0; i < 1000; ++i) {
        registry.CounterAt("hammer_total", "help", {{"shard", label}})->Inc();
        registry.HistogramAt("hammer_us", "help")->Record(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t total = 0;
  for (const auto& family : registry.TakeSnapshot()) {
    if (family.name != "hammer_total") continue;
    for (const auto& inst : family.instruments) total += inst.counter_value;
  }
  EXPECT_EQ(total, 8000u);
  EXPECT_EQ(registry.HistogramAt("hammer_us", "help")->Count(), 8000u);
}

TEST(RenderLabelsTest, FormatsPrometheusStyle) {
  EXPECT_EQ(RenderLabels({}), "");
  EXPECT_EQ(RenderLabels({{"path", "cold"}}), "{path=\"cold\"}");
  EXPECT_EQ(RenderLabels({{"a", "1"}, {"b", "2"}}), "{a=\"1\",b=\"2\"}");
}

// --------------------------------------------------------------------------
// Trace spans
// --------------------------------------------------------------------------

TEST(TraceSpanTest, NestedScopesBuildOrderedTree) {
  Tracer tracer;
  {
    TraceSpan root("root", &tracer);
    {
      TraceSpan a("a");
      { TraceSpan g("g"); }
    }
    { TraceSpan b("b"); }
  }
  const auto tree = tracer.LatestRoot("root");
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(SpanNames(*tree),
            (std::vector<std::string>{"root", "a", "g", "b"}));
  ASSERT_EQ(tree->children.size(), 2u);
  const SpanNode& a = tree->children[0];
  const SpanNode& b = tree->children[1];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(b.name, "b");
  ASSERT_EQ(a.children.size(), 1u);
  EXPECT_EQ(a.children[0].name, "g");
  // Siblings are ordered by start and nested intervals stay inside the
  // parent.
  EXPECT_GE(b.start_us, a.start_us);
  EXPECT_GE(a.duration_us, a.children[0].duration_us);
  EXPECT_LE(a.duration_us + b.duration_us, tree->duration_us + 1e-6);
  const SpanNode* g = FindSpan(*tree, "g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(FindSpan(*tree, "missing"), nullptr);
  EXPECT_FALSE(FormatSpanTree(*tree).empty());
}

TEST(TraceSpanTest, ExplicitEndIsIdempotent) {
  Tracer tracer;
  TraceSpan root("root", &tracer);
  root.End();
  root.End();
  EXPECT_EQ(tracer.roots_finished(), 1u);
  EXPECT_GE(root.elapsed_us(), 0.0);
}

TEST(TracerTest, SamplingKeepsFirstAndEveryNth) {
  TracerConfig config;
  config.buffer_capacity = 64;
  config.sample_every_n = 3;
  Tracer tracer(config);
  for (int i = 0; i < 7; ++i) {
    SpanNode node;
    node.name = "r" + std::to_string(i);
    tracer.RecordRoot(std::move(node));
  }
  EXPECT_EQ(tracer.roots_finished(), 7u);
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 3u);  // Roots 0, 3, 6.
  EXPECT_EQ(kept[0].name, "r0");
  EXPECT_EQ(kept[1].name, "r3");
  EXPECT_EQ(kept[2].name, "r6");
}

TEST(TracerTest, RingEvictsOldestBeyondCapacity) {
  TracerConfig config;
  config.buffer_capacity = 4;
  Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    SpanNode node;
    node.name = "r" + std::to_string(i);
    tracer.RecordRoot(std::move(node));
  }
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().name, "r6");  // Oldest retained first.
  EXPECT_EQ(kept.back().name, "r9");
}

TEST(TracerTest, ClearResetsRetainedTreesAndSamplingPhase) {
  TracerConfig config;
  config.sample_every_n = 5;
  Tracer tracer(config);
  SpanNode first;
  first.name = "first";
  tracer.RecordRoot(std::move(first));
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  // The sampling phase restarted, so the very next root is kept again.
  SpanNode next;
  next.name = "next";
  tracer.RecordRoot(std::move(next));
  EXPECT_TRUE(tracer.LatestRoot("next").has_value());
}

TEST(TracerTest, ConcurrentRootsFromManyThreadsAreRetained) {
  TracerConfig config;
  config.buffer_capacity = 1024;
  Tracer tracer(config);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 50; ++i) {
        TraceSpan root("worker_root", &tracer);
        TraceSpan child("worker_child");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.roots_finished(), 400u);
  EXPECT_EQ(tracer.Snapshot().size(), 400u);
}

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

/// A registry with one family of each kind and known contents.
void FillSampleRegistry(MetricsRegistry* registry) {
  registry->CounterAt("events_total", "Test events", {{"kind", "a"}})->Inc(3);
  registry->CounterAt("events_total", "Test events", {{"kind", "b"}})->Inc(1);
  registry->GaugeAt("queue_depth", "Depth")->Set(2.5);
  Histogram* hist =
      registry->HistogramAt("lat_us", "Latency", {}, SmallConfig());
  hist->Record(0.5);    // Underflow bucket (le="1").
  hist->Record(3.0);    // Bucket le="4".
  hist->Record(100.0);  // Overflow bucket (le="+Inf").
}

TEST(TextExpositionTest, MatchesGoldenOutput) {
  MetricsRegistry registry;
  FillSampleRegistry(&registry);
  const std::string expected =
      "# HELP events_total Test events\n"
      "# TYPE events_total counter\n"
      "events_total{kind=\"a\"} 3\n"
      "events_total{kind=\"b\"} 1\n"
      "# HELP lat_us Latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"4\"} 2\n"
      "lat_us_bucket{le=\"+Inf\"} 3\n"
      "lat_us_sum 103.5\n"
      "lat_us_count 3\n"
      "# HELP queue_depth Depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2.5\n";
  EXPECT_EQ(TextExposition({&registry}), expected);
}

TEST(TextExpositionTest, TwoRegistriesRenderAsOneGolden) {
  MetricsRegistry global;
  FillSampleRegistry(&global);
  // A second registry whose families sort before, between and after the
  // first one's, plus one family name both registries hold.
  MetricsRegistry service;
  service.GaugeAt("build_info", "Build")->Set(1.0);
  service.CounterAt("events_total", "Test events", {{"kind", "c"}})->Inc(7);
  service.CounterAt("jobs_total", "Jobs")->Inc(2);
  service.GaugeAt("zone", "Zone")->Set(4.0);
  const RegistryList both = {&global, &service};

  const std::string expected =
      "# HELP build_info Build\n"
      "# TYPE build_info gauge\n"
      "build_info 1\n"
      "# HELP events_total Test events\n"
      "# TYPE events_total counter\n"
      "events_total{kind=\"a\"} 3\n"
      "events_total{kind=\"b\"} 1\n"
      "events_total{kind=\"c\"} 7\n"
      "# HELP jobs_total Jobs\n"
      "# TYPE jobs_total counter\n"
      "jobs_total 2\n"
      "# HELP lat_us Latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"4\"} 2\n"
      "lat_us_bucket{le=\"+Inf\"} 3\n"
      "lat_us_sum 103.5\n"
      "lat_us_count 3\n"
      "# HELP queue_depth Depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2.5\n"
      "# HELP zone Zone\n"
      "# TYPE zone gauge\n"
      "zone 4\n";
  EXPECT_EQ(TextExposition(both), expected);

  const std::string expected_openmetrics =
      "# HELP build_info Build\n"
      "# TYPE build_info gauge\n"
      "build_info 1\n"
      "# HELP events Test events\n"
      "# TYPE events counter\n"
      "events_total{kind=\"a\"} 3\n"
      "events_total{kind=\"b\"} 1\n"
      "events_total{kind=\"c\"} 7\n"
      "# HELP jobs Jobs\n"
      "# TYPE jobs counter\n"
      "jobs_total 2\n"
      "# HELP lat_us Latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"4\"} 2\n"
      "lat_us_bucket{le=\"+Inf\"} 3\n"
      "lat_us_sum 103.5\n"
      "lat_us_count 3\n"
      "# HELP queue_depth Depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2.5\n"
      "# HELP zone Zone\n"
      "# TYPE zone gauge\n"
      "zone 4\n"
      "# EOF\n";
  EXPECT_EQ(TextExposition(both, ExpositionFormat::kOpenMetrics),
            expected_openmetrics);

  // The JSON snapshot lists the same merged families in the same order.
  Tracer tracer;
  const std::string json = JsonSnapshot(both, &tracer);
  size_t previous = 0;
  for (const char* name : {"build_info", "events_total", "jobs_total",
                           "lat_us", "queue_depth", "zone"}) {
    const std::string key = std::string("\"name\": \"") + name + "\"";
    const size_t pos = json.find(key);
    ASSERT_NE(pos, std::string::npos) << name << " missing in " << json;
    EXPECT_GT(pos, previous) << name << " out of order in " << json;
    EXPECT_EQ(json.find(key, pos + 1), std::string::npos)
        << name << " listed twice in " << json;
    previous = pos;
  }
  EXPECT_NE(json.find("\"labels\": \"{kind=\\\"c\\\"}\""), std::string::npos)
      << json;
}

TEST(JsonSnapshotTest, ContainsMetricsAndSpans) {
  MetricsRegistry registry;
  FillSampleRegistry(&registry);
  Tracer tracer;
  {
    TraceSpan root("score_cold", &tracer);
    TraceSpan child("materialize");
  }
  const std::string json = JsonSnapshot({&registry}, &tracer);
  EXPECT_NE(json.find("\"name\": \"events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"score_cold\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"materialize\""), std::string::npos);
}

TEST(SpanJsonTest, TimingsKeepEveryDigit) {
  SpanNode node;
  node.name = "score_cold";
  node.start_us = 1754600000123456.5;
  node.duration_us = 1234567.8;
  std::string out;
  json::JsonWriter writer(&out);
  AppendSpanJson(node, &writer);
  EXPECT_NE(out.find("\"duration_us\": 1234567.8"), std::string::npos) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << out;
  const json::JsonValue& root = parsed.ValueOrDie();
  ASSERT_NE(root.Find("start_us"), nullptr);
  ASSERT_NE(root.Find("duration_us"), nullptr);
  const double start = root.Find("start_us")->number_value;
  const double duration = root.Find("duration_us")->number_value;
  EXPECT_EQ(std::memcmp(&start, &node.start_us, sizeof(double)), 0) << out;
  EXPECT_EQ(std::memcmp(&duration, &node.duration_us, sizeof(double)), 0)
      << out;
}

// --------------------------------------------------------------------------
// Histogram exemplars
// --------------------------------------------------------------------------

TEST(HistogramExemplarTest, CapturesExemplarInLandingBucket) {
  Histogram histogram(SmallConfig());
  histogram.Record(3.0, "abc123");  // Bucket le="4" is index 3.
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace_id, "abc123");
  EXPECT_DOUBLE_EQ(snap.exemplars[0].value, 3.0);
  EXPECT_GT(snap.exemplars[0].timestamp_s, 1e9);  // Sane unix seconds.
  const Histogram::Exemplar* ex = snap.ExemplarFor(snap.exemplars[0].bucket);
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->trace_id, "abc123");
  EXPECT_EQ(snap.ExemplarFor(0), nullptr);  // Untouched bucket: none.
}

TEST(HistogramExemplarTest, EmptyTraceIdRecordsCountButNoExemplar) {
  Histogram histogram(SmallConfig());
  histogram.Record(3.0, "");
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_TRUE(snap.exemplars.empty());
}

TEST(HistogramExemplarTest, LatestWriterWinsPerBucket) {
  Histogram histogram(SmallConfig());
  histogram.Record(3.0, "first");
  histogram.Record(3.5, "second");
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace_id, "second");
  EXPECT_DOUBLE_EQ(snap.exemplars[0].value, 3.5);
}

TEST(HistogramExemplarTest, OverlongTraceIdIsTruncatedNotCorrupted) {
  Histogram histogram(SmallConfig());
  const std::string long_id(100, 'x');
  histogram.Record(3.0, long_id);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace_id, std::string(64, 'x'));
}

TEST(HistogramExemplarTest, SlotHoldsTheLongestTransportTraceId) {
  // net::ExtractTraceId caps sanitized x-request-id values at 64 chars;
  // a slot must hold that much so the exposed exemplar id matches the
  // response header and the retained trace exactly.
  Histogram histogram(SmallConfig());
  const std::string max_id(64, 'a');
  histogram.Record(3.0, max_id);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace_id, max_id);
}

TEST(HistogramExemplarTest, ConcurrentExemplarRecordsStayConsistent) {
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&histogram, t] {
      const std::string id = "trace-" + std::to_string(t);
      for (int i = 0; i < 5000; ++i) {
        histogram.Record(static_cast<double>(i % 100 + 1), id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 40000u);  // No count is ever lost to the try-lock.
  ASSERT_FALSE(snap.exemplars.empty());
  for (const Histogram::Exemplar& ex : snap.exemplars) {
    // Every captured exemplar is one writer's intact id, never a splice.
    EXPECT_EQ(ex.trace_id.rfind("trace-", 0), 0u) << ex.trace_id;
    EXPECT_GE(ex.value, 1.0);
    EXPECT_LE(ex.value, 100.0);
  }
}

// --------------------------------------------------------------------------
// Label-value escaping
// --------------------------------------------------------------------------

TEST(EscapeLabelValueTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
  // Order matters: the backslash introduced by escaping is not re-escaped.
  EXPECT_EQ(EscapeLabelValue("\\\""), "\\\\\\\"");
}

TEST(RenderLabelsTest, EscapesHostileValues) {
  EXPECT_EQ(RenderLabels({{"path", "a\"b\nc\\d"}}),
            "{path=\"a\\\"b\\nc\\\\d\"}");
}

TEST(TextExpositionTest, EscapedLabelGolden) {
  MetricsRegistry registry;
  registry.CounterAt("hostile_total", "Hostile labels",
                     {{"src", "quo\"te\\slash\nnewline"}})
      ->Inc(1);
  const std::string expected =
      "# HELP hostile_total Hostile labels\n"
      "# TYPE hostile_total counter\n"
      "hostile_total{src=\"quo\\\"te\\\\slash\\nnewline\"} 1\n";
  EXPECT_EQ(TextExposition({&registry}), expected);
}

TEST(TextExpositionTest, RendersExemplarSuffixOnlyInOpenMetrics) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.HistogramAt("lat_us", "Latency", {}, SmallConfig());
  hist->Record(0.5);  // Underflow bucket, recorded without a trace id.
  hist->Record(3.0, "4bf92f3577b34da6a3ce929d0e0e4736");

  // The classic 0.0.4 dialect must stay exemplar-free: its parser treats
  // a '#' after the sample value as a parse error, failing the scrape.
  const std::string classic = TextExposition({&registry});
  EXPECT_EQ(classic.find(" # {"), std::string::npos) << classic;
  EXPECT_EQ(classic.find("# EOF"), std::string::npos) << classic;
  EXPECT_NE(classic.find("lat_us_bucket{le=\"4\"} 2\n"), std::string::npos)
      << classic;

  // OpenMetrics exemplar: `bucket-line # {labels} value timestamp`
  // (bucket counts are cumulative, so le="4" covers both records).
  const std::string text =
      TextExposition({&registry}, ExpositionFormat::kOpenMetrics);
  const size_t pos = text.find(
      "lat_us_bucket{le=\"4\"} 2 "
      "# {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 3");
  EXPECT_NE(pos, std::string::npos) << text;
  // Buckets without a captured exemplar stay bare.
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 1\n"), std::string::npos)
      << text;
}

TEST(TextExpositionTest, OpenMetricsGolden) {
  MetricsRegistry registry;
  FillSampleRegistry(&registry);
  // Counter families drop the `_total` suffix on HELP/TYPE (the sample
  // line keeps it, per the OpenMetrics abnf) and the stream ends with
  // the mandatory `# EOF` marker.
  const std::string expected =
      "# HELP events Test events\n"
      "# TYPE events counter\n"
      "events_total{kind=\"a\"} 3\n"
      "events_total{kind=\"b\"} 1\n"
      "# HELP lat_us Latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"4\"} 2\n"
      "lat_us_bucket{le=\"+Inf\"} 3\n"
      "lat_us_sum 103.5\n"
      "lat_us_count 3\n"
      "# HELP queue_depth Depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2.5\n"
      "# EOF\n";
  EXPECT_EQ(TextExposition({&registry}, ExpositionFormat::kOpenMetrics),
            expected);
}

TEST(TextExpositionTest, SampleValuesKeepEveryDigit) {
  // %g kept six significant digits: 1.23457e+06 for both values below.
  MetricsRegistry registry;
  registry.GaugeAt("resident", "Resident")->Set(1234567.5);
  Histogram* hist =
      registry.HistogramAt("lat_us", "Latency", {}, SmallConfig());
  hist->Record(1236567.75, "4bf92f3577b34da6a3ce929d0e0e4736");
  const std::string samples =
      "lat_us_sum 1236567.75\n"
      "lat_us_count 1\n"
      "# HELP resident Resident\n"
      "# TYPE resident gauge\n"
      "resident 1234567.5\n";
  const std::string classic = TextExposition({&registry});
  EXPECT_NE(classic.find("lat_us_bucket{le=\"+Inf\"} 1\n" + samples),
            std::string::npos)
      << classic;
  const std::string openmetrics =
      TextExposition({&registry}, ExpositionFormat::kOpenMetrics);
  EXPECT_NE(openmetrics.find(
                "lat_us_bucket{le=\"+Inf\"} 1 # {trace_id="
                "\"4bf92f3577b34da6a3ce929d0e0e4736\"} 1236567.75 "),
            std::string::npos)
      << openmetrics;
  EXPECT_NE(openmetrics.find(samples + "# EOF\n"), std::string::npos)
      << openmetrics;

  Tracer tracer;
  const std::string json = JsonSnapshot({&registry}, &tracer);
  for (const char* field :
       {"\"value\": 1234567.5", "\"sum\": 1236567.75", "\"min\": 1236567.75",
        "\"max\": 1236567.75", "\"value\": 1236567.75"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
  EXPECT_EQ(json.find("e+06"), std::string::npos) << json;
}

TEST(TextExpositionTest, ContentTypesMatchDialects) {
  EXPECT_EQ(
      std::string(ExpositionContentType(ExpositionFormat::kPrometheusText)),
      "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(
      std::string(ExpositionContentType(ExpositionFormat::kOpenMetrics)),
      "application/openmetrics-text; version=1.0.0; charset=utf-8");
}

TEST(JsonSnapshotTest, HistogramExemplarsAppearInJson) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.HistogramAt("lat_us", "Latency", {}, SmallConfig());
  hist->Record(3.0, "deadbeef");
  hist->Record(1e9, "overflowid");
  Tracer tracer;
  const std::string json = JsonSnapshot({&registry}, &tracer);
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"deadbeef\""), std::string::npos);
  // The overflow bucket's bound serializes as the string "+Inf", never as
  // a bare inf token (which would not be JSON).
  EXPECT_NE(json.find("\"bucket_le\": \"+Inf\""), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);
}

// --------------------------------------------------------------------------
// Trace ids, context propagation, tail retention
// --------------------------------------------------------------------------

TEST(GenerateTraceIdTest, ProducesDistinctLowercaseHexIds) {
  const std::string a = GenerateTraceId();
  const std::string b = GenerateTraceId();
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, std::string(32, '0'));
  for (char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

TEST(ScopedTraceContextTest, StampsRootAndRestoresPreviousContext) {
  Tracer tracer;
  EXPECT_EQ(ScopedTraceContext::CurrentTraceId(), "");
  {
    ScopedTraceContext outer("outer-id");
    EXPECT_EQ(ScopedTraceContext::CurrentTraceId(), "outer-id");
    {
      ScopedTraceContext inner("inner-id");
      EXPECT_EQ(ScopedTraceContext::CurrentTraceId(), "inner-id");
      TraceSpan root("inner_root", &tracer);
    }
    EXPECT_EQ(ScopedTraceContext::CurrentTraceId(), "outer-id");
    TraceSpan root("outer_root", &tracer);
  }
  EXPECT_EQ(ScopedTraceContext::CurrentTraceId(), "");
  const auto inner = tracer.LatestRoot("inner_root");
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->trace_id, "inner-id");
  const auto outer = tracer.LatestRoot("outer_root");
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->trace_id, "outer-id");
}

TEST(TracerTest, ErrorRootBypassesSamplingIntoRetainedRing) {
  TracerConfig config;
  config.sample_every_n = 1000;  // Ordinary roots are all dropped...
  Tracer tracer(config);
  SpanNode dropped;
  dropped.name = "ok1";
  tracer.RecordRoot(std::move(dropped));  // Root 0: the one sampled root.
  SpanNode dropped2;
  dropped2.name = "ok2";
  tracer.RecordRoot(std::move(dropped2));  // Root 1: sampled away.
  SpanNode failed;
  failed.name = "failed";
  failed.error = true;
  tracer.RecordRoot(std::move(failed));  // Root 2: error -> retained.
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "ok1");
  EXPECT_EQ(kept[1].name, "failed");
  EXPECT_TRUE(kept[1].error);
}

TEST(TracerTest, ChildErrorBubblesToRootAndForcesRetention) {
  TracerConfig config;
  config.sample_every_n = 0;  // Keep nothing by sampling.
  Tracer tracer(config);
  {
    TraceSpan root("req", &tracer);
    TraceSpan child("stage");
    child.SetError();
  }
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept[0].error);  // Bubbled from the child.
  ASSERT_EQ(kept[0].children.size(), 1u);
  EXPECT_TRUE(kept[0].children[0].error);
}

TEST(TracerTest, SlowRootIsTailRetainedDespiteSampling) {
  TracerConfig config;
  config.sample_every_n = 0;
  config.retain_latency_us = 500.0;
  Tracer tracer(config);
  SpanNode fast;
  fast.name = "fast";
  fast.duration_us = 100.0;
  tracer.RecordRoot(std::move(fast));
  SpanNode slow;
  slow.name = "slow";
  slow.duration_us = 900.0;
  tracer.RecordRoot(std::move(slow));
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].name, "slow");
}

TEST(TracerTest, RetainedRingIsNotEvictedByOrdinaryTraffic) {
  TracerConfig config;
  config.buffer_capacity = 2;  // Tiny sampled ring.
  config.retained_capacity = 8;
  Tracer tracer(config);
  SpanNode failed;
  failed.name = "the_failure";
  failed.error = true;
  tracer.RecordRoot(std::move(failed));
  // A burst of healthy traffic churns the sampled ring far past capacity.
  for (int i = 0; i < 100; ++i) {
    SpanNode node;
    node.name = "healthy";
    tracer.RecordRoot(std::move(node));
  }
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 3u);  // 2 sampled + the retained failure.
  EXPECT_EQ(kept.back().name, "the_failure");
}

TEST(TracerTest, RetainedRingEvictsOldestAmongRetained) {
  TracerConfig config;
  config.retained_capacity = 2;
  config.sample_every_n = 0;
  Tracer tracer(config);
  for (int i = 0; i < 4; ++i) {
    SpanNode node;
    node.name = "err" + std::to_string(i);
    node.error = true;
    tracer.RecordRoot(std::move(node));
  }
  const auto kept = tracer.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "err2");
  EXPECT_EQ(kept[1].name, "err3");
}

TEST(TracerTest, FindTraceLooksUpRetainedAndSampledRoots) {
  Tracer tracer;
  SpanNode sampled;
  sampled.name = "sampled";
  sampled.trace_id = "id-sampled";
  tracer.RecordRoot(std::move(sampled));
  SpanNode retained;
  retained.name = "retained";
  retained.trace_id = "id-retained";
  retained.error = true;
  tracer.RecordRoot(std::move(retained));
  const auto hit = tracer.FindTrace("id-retained");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "retained");
  const auto sampled_hit = tracer.FindTrace("id-sampled");
  ASSERT_TRUE(sampled_hit.has_value());
  EXPECT_EQ(sampled_hit->name, "sampled");
  EXPECT_FALSE(tracer.FindTrace("no-such-id").has_value());
  EXPECT_FALSE(tracer.FindTrace("").has_value());
}

// --------------------------------------------------------------------------
// Profiler
// --------------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

TEST(ProfilerTest, RefusesToStartUnderTsanOtherwiseCaptures) {
  Profiler profiler;
  if (kUnderTsan) {
    std::string folded;
    const Status status = profiler.ProfileFor(0.05, &folded);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable)
        << status.ToString();
    return;
  }
  // Keep a thread busy so wall-clock samples land somewhere real.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::thread burner([&stop, &sink] {
    while (!stop.load(std::memory_order_relaxed)) {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::string folded;
  const Status status = profiler.ProfileFor(0.3, &folded);
  stop.store(true);
  burner.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(profiler.running());
  EXPECT_GT(profiler.samples_captured(), 0u);
  ASSERT_FALSE(folded.empty());
  // Every folded line is `frame;frame;... count` with a positive count.
  std::istringstream lines(folded);
  std::string line;
  uint64_t total = 0;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GT(count, 0u) << line;
    total += count;
  }
  EXPECT_EQ(total, profiler.samples_captured());
}

TEST(ProfilerTest, StartTwiceFailsStopIsIdempotent) {
  if (kUnderTsan) GTEST_SKIP() << "profiler disabled under TSan";
  Profiler profiler;
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  const Status again = profiler.Start();
  EXPECT_FALSE(again.ok());
  profiler.Stop();
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
}

TEST(ProfilerTest, SecondProfilerCannotStealTheSignalHandler) {
  if (kUnderTsan) GTEST_SKIP() << "profiler disabled under TSan";
  Profiler first;
  ASSERT_TRUE(first.Start().ok());
  Profiler second;
  const Status status = second.Start();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  first.Stop();
}

TEST(ProfilerTest, CollectFoldedOnEmptyCaptureIsEmpty) {
  Profiler profiler;
  EXPECT_EQ(profiler.samples_captured(), 0u);
  EXPECT_TRUE(profiler.CollectFolded().empty());
}

}  // namespace
}  // namespace obs
}  // namespace dbg4eth
