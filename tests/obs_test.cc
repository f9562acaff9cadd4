// Tests for the observability layer (src/obs/): metrics registry scoping and
// snapshot semantics, trace ring-buffer overflow, Chrome trace JSON export,
// JSON parsing, and the bench report schema.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace linefs::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("nicfs.0.chunks_fetched");
  Counter* b = registry.GetCounter("nicfs.0.chunks_fetched");
  EXPECT_EQ(a, b);
  a->Add(3);
  a->Increment();
  EXPECT_EQ(b->value(), 4u);
  // A different name is a different metric.
  Counter* c = registry.GetCounter("nicfs.1.chunks_fetched");
  EXPECT_NE(a, c);
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsRegistry, ConstFindDoesNotCreate) {
  MetricsRegistry registry;
  const MetricsRegistry& view = registry;
  EXPECT_EQ(view.FindCounter("missing"), nullptr);
  EXPECT_EQ(view.FindGauge("missing"), nullptr);
  EXPECT_EQ(view.FindHistogram("missing"), nullptr);
  EXPECT_EQ(registry.counter_count(), 0u);
  registry.GetCounter("present");
  ASSERT_NE(view.FindCounter("present"), nullptr);
  EXPECT_EQ(view.FindCounter("present")->value(), 0u);
}

TEST(MetricsRegistry, ScopeJoinsNamesHierarchically) {
  MetricsRegistry registry;
  MetricScope scope(&registry, "nicfs.2");
  Counter* counter = scope.CounterAt("chunks_fetched");
  Histogram* hist = scope.Sub("stage").HistogramAt("fetch");
  Gauge* gauge = scope.Sub("workers").GaugeAt("validate");
  counter->Increment();
  hist->Record(1000);
  gauge->Set(2);
  EXPECT_EQ(registry.FindCounter("nicfs.2.chunks_fetched"), counter);
  EXPECT_EQ(registry.FindHistogram("nicfs.2.stage.fetch"), hist);
  EXPECT_EQ(registry.FindGauge("nicfs.2.workers.validate"), gauge);
}

TEST(MetricsRegistry, SnapshotIsAValueCopy) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ops");
  Histogram* hist = registry.GetHistogram("lat");
  registry.GetGauge("depth")->Set(7.5);
  counter->Add(10);
  for (int i = 1; i <= 100; ++i) {
    hist->Record(i * 10);
  }
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.count("ops"), 1u);
  EXPECT_EQ(snap.counters.at("ops"), 10u);
  ASSERT_EQ(snap.gauges.count("depth"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 7.5);
  ASSERT_EQ(snap.histograms.count("lat"), 1u);
  const HistogramSummary& lat = snap.histograms.at("lat");
  EXPECT_EQ(lat.count, 100u);
  EXPECT_EQ(lat.min, 10);
  EXPECT_EQ(lat.max, 1000);
  EXPECT_LE(lat.p50, lat.p95);
  EXPECT_LE(lat.p95, lat.p99);
  // Mutating after the snapshot does not change the snapshot.
  counter->Add(5);
  EXPECT_EQ(snap.counters.at("ops"), 10u);
}

// --- TraceBuffer -------------------------------------------------------------

TEST(TraceBuffer, SpanRecordsOnDestruction) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(16);
  {
    Span span(&buffer, "nicfs.0", "fetch", 0, 1, 42);
  }
  ASSERT_EQ(buffer.total_recorded(), 1u);
  buffer.ForEach([](const TraceEvent& ev) {
    EXPECT_EQ(ev.component, "nicfs.0");
    EXPECT_EQ(ev.stage, "fetch");
    EXPECT_EQ(ev.node, 0);
    EXPECT_EQ(ev.client, 1);
    EXPECT_EQ(ev.chunk_no, 42u);
  });
}

TEST(TraceBuffer, MovedFromSpanRecordsNothing) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  {
    Span a(&buffer, "nicfs.0", "validate", 0, 0, 1);
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): intentional.
    EXPECT_TRUE(b.active());
    b.End();
    EXPECT_FALSE(b.active());
  }
  EXPECT_EQ(buffer.total_recorded(), 1u);
}

TEST(TraceBuffer, OverflowDropsOldestAndCounts) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(4);
  for (uint64_t i = 0; i < 10; ++i) {
    buffer.Record(TraceEvent{"c", "s", 0, 0, i, 0, 1});
  }
  EXPECT_EQ(buffer.total_recorded(), 10u);
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  std::vector<uint64_t> chunks;
  buffer.ForEach([&](const TraceEvent& ev) { chunks.push_back(ev.chunk_no); });
  // Oldest-first iteration over the surviving (newest 4) events.
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks.front(), 6u);
  EXPECT_EQ(chunks.back(), 9u);
}

TEST(TraceBuffer, ChromeJsonParsesAndContainsStages) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(64);
  const char* stages[] = {"fetch", "validate", "compress", "transfer", "publish"};
  for (uint64_t i = 0; i < 5; ++i) {
    buffer.Record(TraceEvent{"nicfs.0", stages[i], 0, static_cast<int>(i), i,
                             static_cast<sim::Time>(i * 1000),
                             static_cast<sim::Time>(i * 1000 + 500)});
  }
  std::string json = buffer.ToChromeJson();
  std::optional<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value()) << json.substr(0, 200);
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 5u);
  std::set<std::string> seen;
  for (const JsonValue& ev : events->items()) {
    ASSERT_NE(ev.Find("name"), nullptr);
    seen.insert(ev.Find("name")->AsString());
    EXPECT_EQ(ev.Find("ph")->AsString(), "X");
    EXPECT_NE(ev.Find("ts"), nullptr);
    EXPECT_NE(ev.Find("dur"), nullptr);
  }
  for (const char* stage : stages) {
    EXPECT_EQ(seen.count(stage), 1u) << stage;
  }
}

// --- JSON --------------------------------------------------------------------

TEST(Json, RoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue("bench \"x\"\n"));
  obj.Set("n", JsonValue(42));
  obj.Set("frac", JsonValue(1.5));
  obj.Set("yes", JsonValue(true));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue(1));
  arr.Append(JsonValue());  // null
  obj.Set("items", std::move(arr));
  std::string text = obj.Dump(2);
  std::optional<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("name")->AsString(), "bench \"x\"\n");
  EXPECT_DOUBLE_EQ(parsed->Find("n")->AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(parsed->Find("frac")->AsDouble(), 1.5);
  EXPECT_TRUE(parsed->Find("yes")->AsBool());
  ASSERT_EQ(parsed->Find("items")->items().size(), 2u);
  EXPECT_TRUE(parsed->Find("items")->items()[1].is_null());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::Parse("").has_value());
}

// --- Bench report ------------------------------------------------------------

TEST(BenchReport, JsonSchemaContainsStagesAndScalars) {
  MetricsRegistry registry;
  MetricScope scope(&registry, "nicfs.0");
  scope.CounterAt("chunks_fetched")->Add(12);
  Histogram* fetch = scope.Sub("stage").HistogramAt("fetch");
  for (int i = 1; i <= 50; ++i) {
    fetch->Record(i * sim::kMicrosecond);
  }
  registry.GetHistogram("nicfs.0.qdepth.validate")->Record(3);

  BenchReportData data;
  data.name = "unit";
  BenchRun run;
  run.label = "LineFS/idle";
  run.scalars.emplace_back("throughput_bytes_per_sec", 2.5e9);
  run.metrics = registry.TakeSnapshot();
  data.runs.push_back(std::move(run));

  JsonValue doc = ReportJson(data);
  std::string text = doc.Dump(2);
  std::optional<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.has_value()) << text.substr(0, 200);
  EXPECT_EQ(parsed->Find("bench")->AsString(), "unit");
  EXPECT_DOUBLE_EQ(parsed->Find("schema_version")->AsDouble(), 3.0);
  ASSERT_NE(parsed->Find("meta"), nullptr);
  EXPECT_TRUE(parsed->Find("meta")->Find("git_sha")->is_string());
  const JsonValue& first = parsed->Find("runs")->items().at(0);
  EXPECT_EQ(first.Find("label")->AsString(), "LineFS/idle");
  EXPECT_DOUBLE_EQ(first.Find("scalars")->Find("throughput_bytes_per_sec")->AsDouble(),
                   2.5e9);
  const JsonValue* stages = first.Find("stages");
  ASSERT_NE(stages, nullptr);
  const JsonValue* stage = stages->Find("nicfs.0.stage.fetch");
  ASSERT_NE(stage, nullptr);
  EXPECT_DOUBLE_EQ(stage->Find("count")->AsDouble(), 50.0);
  ASSERT_NE(stage->Find("p50_us"), nullptr);
  ASSERT_NE(stage->Find("p95_us"), nullptr);
  ASSERT_NE(stage->Find("p99_us"), nullptr);
  EXPECT_LE(stage->Find("p50_us")->AsDouble(), stage->Find("p99_us")->AsDouble());
  // Non-stage histograms land under "histograms", not "stages".
  EXPECT_EQ(stages->Find("nicfs.0.qdepth.validate"), nullptr);
  ASSERT_NE(first.Find("histograms")->Find("nicfs.0.qdepth.validate"), nullptr);
  EXPECT_DOUBLE_EQ(first.Find("counters")->Find("nicfs.0.chunks_fetched")->AsDouble(), 12.0);
}

TEST(BenchReport, WriteBenchJsonCreatesFile) {
  BenchReportData data;
  data.name = "smoke";
  BenchRun run;
  run.label = "r0";
  run.scalars = {{"x", 1.0}};
  data.runs.push_back(run);
  std::string dir = ::testing::TempDir();
  Status st = WriteBenchJson(data, dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::string path = dir + "/BENCH_smoke.json";
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  std::optional<JsonValue> parsed = JsonValue::Parse(contents);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("bench")->AsString(), "smoke");
}

}  // namespace
}  // namespace linefs::obs
