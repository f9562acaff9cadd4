// Tests for the two-sided observability plane: virtual-time telemetry
// (obs::TimeSeries windowing, quantile-sketch accuracy, schema-v3 report
// export, determinism with telemetry on/off) and the wall-clock self-profiler
// (engine observer, label attribution, folded-stack output).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/core/libfs.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/selfprof.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "tests/json_parse.h"

namespace linefs::obs {
namespace {

// --- QuantileSketch ----------------------------------------------------------

TEST(QuantileSketch, SmallValuesAreExact) {
  // Values below 16 map to their own bucket, so every quantile is exact.
  QuantileSketch sketch;
  for (int64_t v = 0; v < 16; ++v) {
    sketch.Record(v);
  }
  EXPECT_EQ(sketch.count(), 16u);
  EXPECT_EQ(sketch.Quantile(0.0), 0);
  EXPECT_EQ(sketch.Quantile(1.0), 15);
  for (int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(QuantileSketch::BucketUpperBound(QuantileSketch::BucketIndex(v)), v);
  }
}

TEST(QuantileSketch, BucketBoundariesArePinned) {
  // Above the exact range each power-of-two octave splits into 16 linear
  // sub-buckets. Pin a few boundary cases so the mapping never drifts.
  // 16 is the first value of octave 4, sub-bucket 0 -> index 16.
  EXPECT_EQ(QuantileSketch::BucketIndex(16), 16u);
  EXPECT_EQ(QuantileSketch::BucketUpperBound(16), 16);  // Width 1 in octave 4.
  // 31 = last value of octave 4 -> index 31, upper bound 31.
  EXPECT_EQ(QuantileSketch::BucketIndex(31), 31u);
  EXPECT_EQ(QuantileSketch::BucketUpperBound(31), 31);
  // 32 starts octave 5 (width-2 buckets): index 32 covers [32, 33].
  EXPECT_EQ(QuantileSketch::BucketIndex(32), 32u);
  EXPECT_EQ(QuantileSketch::BucketIndex(33), 32u);
  EXPECT_EQ(QuantileSketch::BucketUpperBound(32), 33);
  // 1024 starts octave 10: index 16 + (10-4)*16 = 112, bucket covers 64 values.
  EXPECT_EQ(QuantileSketch::BucketIndex(1024), 112u);
  EXPECT_EQ(QuantileSketch::BucketUpperBound(112), 1024 + 64 - 1);
}

TEST(QuantileSketch, QuantileWithinRelativeErrorBound) {
  // Reported quantile is the holding bucket's upper bound: never below the
  // exact order statistic and at most kRelativeError above it.
  std::vector<int64_t> values;
  QuantileSketch sketch;
  uint64_t x = 88172645463325252ULL;  // xorshift64: deterministic workload.
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    int64_t v = static_cast<int64_t>(x % 5000000);  // Up to 5 ms in ns.
    values.push_back(v);
    sketch.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    int64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    int64_t est = sketch.Quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) * (1.0 + QuantileSketch::kRelativeError) + 1.0)
        << "q=" << q;
  }
}

// --- TimeSeries --------------------------------------------------------------

TEST(TimeSeries, WindowBoundariesArePinned) {
  TimeSeries series(SeriesKind::kCounter, 100);  // Width 100 ns.
  series.Record(0, 1);    // Window 0: [0, 100).
  series.Record(99, 1);   // Window 0 still.
  series.Record(100, 1);  // Window 1: [100, 200).
  series.Record(250, 5);  // Window 2.
  TimeSeriesSnapshot snap = series.Snapshot();
  ASSERT_EQ(snap.windows.size(), 3u);
  EXPECT_EQ(snap.windows[0].index, 0u);
  EXPECT_EQ(snap.windows[0].count, 2u);
  EXPECT_EQ(snap.windows[1].index, 1u);
  EXPECT_EQ(snap.windows[1].count, 1u);
  EXPECT_EQ(snap.windows[2].index, 2u);
  EXPECT_EQ(snap.windows[2].count, 1u);
  EXPECT_DOUBLE_EQ(snap.windows[2].sum, 5.0);
  EXPECT_EQ(snap.windows[2].max, 5);
}

TEST(TimeSeries, SparseSnapshotSkipsEmptyWindows) {
  TimeSeries series(SeriesKind::kCounter, 10);
  series.Record(5, 1);
  series.Record(995, 1);  // Window 99; windows 1..98 empty.
  TimeSeriesSnapshot snap = series.Snapshot();
  ASSERT_EQ(snap.windows.size(), 2u);
  EXPECT_EQ(snap.windows[0].index, 0u);
  EXPECT_EQ(snap.windows[1].index, 99u);
}

TEST(TimeSeries, SampledSeriesKeepsPerWindowQuantiles) {
  TimeSeries series(SeriesKind::kSampled, 1000);
  for (int64_t v = 1; v <= 100; ++v) {
    series.Record(10, v);    // Window 0: values 1..100.
    series.Record(1500, 5);  // Window 1: constant 5.
  }
  TimeSeriesSnapshot snap = series.Snapshot();
  ASSERT_EQ(snap.windows.size(), 2u);
  // p50 of 1..100 is ~50; sketch reports the bucket upper bound.
  EXPECT_GE(snap.windows[0].p50, 50);
  EXPECT_LE(snap.windows[0].p50, 54);
  EXPECT_GE(snap.windows[0].p99, 99);
  EXPECT_EQ(snap.windows[1].p50, 5);
  EXPECT_EQ(snap.windows[1].p99, 5);
}

TEST(TimeSeries, ZeroWidthDisablesRecording) {
  TimeSeries series(SeriesKind::kSampled, 0);
  EXPECT_FALSE(series.enabled());
  series.Record(123, 456);
  EXPECT_EQ(series.total_count(), 0u);
  EXPECT_TRUE(series.Snapshot().windows.empty());
}

TEST(MetricsRegistry, TimeSeriesRegistrationAndSnapshot) {
  MetricsRegistry registry;
  registry.SetTimelineWindow(100);
  TimeSeries* a = registry.GetTimeSeries("load.delivered", SeriesKind::kCounter);
  EXPECT_EQ(registry.GetTimeSeries("load.delivered", SeriesKind::kCounter), a);
  EXPECT_EQ(a->window_width(), 100);
  a->Record(50, 1);
  // Never-fed series stay out of the snapshot.
  registry.GetTimeSeries("load.empty", SeriesKind::kCounter);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.timeline.size(), 1u);
  ASSERT_EQ(snap.timeline.count("load.delivered"), 1u);
  EXPECT_EQ(snap.timeline.at("load.delivered").windows.size(), 1u);
  // MetricScope joins prefixes for series just like other metrics.
  MetricScope scope(&registry, "nicfs.0");
  scope.TimeSeriesAt("qdepth.fetch", SeriesKind::kSampled);
  EXPECT_NE(registry.FindTimeSeries("nicfs.0.qdepth.fetch"), nullptr);
}

// --- Schema v3 report --------------------------------------------------------

TEST(BenchReport, SchemaV3EmitsTimelineAndP999) {
  MetricsRegistry registry;
  registry.SetTimelineWindow(1000);
  registry.GetTimeSeries("load.latency", SeriesKind::kSampled)->Record(500, 777);
  registry.GetTimeSeries("load.delivered", SeriesKind::kCounter)->Record(1500, 1);
  Histogram* stage = registry.GetHistogram("nicfs.0.stage.fetch");
  for (int i = 1; i <= 1000; ++i) {
    stage->Record(i * 1000);
  }

  BenchReportData data;
  data.name = "schema_v3";
  BenchRun run;
  run.label = "run";
  run.metrics = registry.TakeSnapshot();
  data.runs.push_back(std::move(run));
  JsonValue doc = ReportJson(data);

  EXPECT_DOUBLE_EQ(doc.Find("schema_version")->AsDouble(), 3.0);
  const JsonValue& r = doc.Find("runs")->items().at(0);
  const JsonValue* timeline = r.Find("timeline");
  ASSERT_NE(timeline, nullptr);
  EXPECT_DOUBLE_EQ(timeline->Find("window_us")->AsDouble(), 1.0);  // 1000 ns.
  const JsonValue* series = timeline->Find("series");
  const JsonValue* lat = series->Find("load.latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Find("kind")->AsString(), "sampled");
  const JsonValue& w0 = lat->Find("windows")->items().at(0);
  EXPECT_DOUBLE_EQ(w0.Find("t_us")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(w0.Find("count")->AsDouble(), 1.0);
  EXPECT_GE(w0.Find("p95")->AsDouble(), 777.0);
  const JsonValue* delivered = series->Find("load.delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->Find("kind")->AsString(), "counter");
  EXPECT_DOUBLE_EQ(delivered->Find("windows")->items().at(0).Find("t_us")->AsDouble(), 1.0);
  EXPECT_EQ(delivered->Find("windows")->items().at(0).Find("p95"), nullptr);
  // Stage histograms now carry the p999 tail.
  const JsonValue* fetch = r.Find("stages")->Find("nicfs.0.stage.fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_GE(fetch->Find("p999_us")->AsDouble(), fetch->Find("p99_us")->AsDouble());
  // Nearest-rank with interpolation lands within one sample of the exact tail.
  EXPECT_NEAR(fetch->Find("p999_us")->AsDouble(), 999.0, 1.0);
}

TEST(BenchReport, TimelineOmittedWhenEmpty) {
  BenchReportData data;
  data.name = "no_timeline";
  BenchRun run;
  run.label = "run";
  data.runs.push_back(std::move(run));
  JsonValue doc = ReportJson(data);
  EXPECT_EQ(doc.Find("runs")->items().at(0).Find("timeline"), nullptr);
}

TEST(HistogramSummary, P999TracksTail) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  for (int i = 1; i <= 10000; ++i) {
    h->Record(i);
  }
  HistogramSummary s = h->Summarize();
  EXPECT_EQ(s.p99, 9900);
  EXPECT_EQ(s.p999, 9990);
  EXPECT_GE(s.p999, s.p99);
}

// --- Chrome counter events ---------------------------------------------------

TEST(TraceBuffer, ChromeJsonEmitsTimelineCounterEvents) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  MetricsRegistry registry;
  registry.SetTimelineWindow(1000);
  registry.GetTimeSeries("load.delivered", SeriesKind::kCounter)->Record(500, 1);
  registry.GetTimeSeries("load.latency", SeriesKind::kSampled)->Record(500, 42);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  std::string json = buffer.ToChromeJson(&snap.timeline);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("load.delivered"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // Still valid JSON.
  std::optional<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->Find("traceEvents"), nullptr);
}

// --- Determinism -------------------------------------------------------------

// The telemetry plane observes the simulation without perturbing it: the same
// seed must produce byte-identical simulated results whether the timeline is
// enabled, disabled, or the self-profiler is attached.
std::string RunClusterDigest(sim::Time timeline_window, bool selfprof) {
  sim::Engine engine;
  SelfProfiler profiler;  // Accumulator unless attached below.
  if (selfprof) {
    engine.SetObserver(&profiler);
  }
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 2;
  config.timeline_window = timeline_window;
  core::Cluster cluster(&engine, config);
  EXPECT_TRUE(cluster.Start().ok());
  core::LibFs* fs = cluster.CreateClient(0);
  bool done = false;
  engine.Spawn(
      [](core::LibFs* fs, bool* done) -> sim::Task<> {
        Result<int> fd = co_await fs->Open("/det.dat", fslib::kOpenCreate | fslib::kOpenWrite);
        EXPECT_TRUE(fd.ok());
        std::vector<uint8_t> payload(1 << 16, 0xAB);
        for (int i = 0; i < 8; ++i) {
          Result<uint64_t> wrote = co_await fs->Write(*fd, payload);
          EXPECT_TRUE(wrote.ok());
        }
        Status synced = co_await fs->Fsync(*fd);
        EXPECT_TRUE(synced.ok());
        co_await fs->Close(*fd);
        *done = true;
      }(fs, &done),
      "client");
  // Cluster background loops (heartbeats, monitors) reschedule forever, so
  // step until the client finishes rather than draining the queue.
  sim::Time deadline = engine.Now() + 60 * sim::kSecond;
  while (!done && engine.Now() < deadline && engine.RunOne()) {
  }
  EXPECT_TRUE(done) << "client task did not complete";
  cluster.Shutdown();
  engine.RunUntil(engine.Now() + 1 * sim::kSecond);
  // Digest: final virtual time + every counter (virtual-time telemetry and
  // wall-clock observation must change neither).
  std::ostringstream digest;
  digest << engine.Now() << '|' << engine.events_processed() << '|'
         << engine.schedule_calls() << '|' << engine.schedule_clamps();
  MetricsRegistry::Snapshot snap = cluster.metrics().TakeSnapshot();
  for (const auto& [name, value] : snap.counters) {
    digest << ';' << name << '=' << value;
  }
  engine.SetObserver(nullptr);
  // Let in-flight RPC timers finish so no suspended coroutine frame outlives
  // the engine.
  engine.Run();
  return digest.str();
}

TEST(Determinism, TelemetryAndSelfprofDoNotPerturbSimulation) {
  std::string base = RunClusterDigest(50 * sim::kMillisecond, false);
  EXPECT_EQ(RunClusterDigest(50 * sim::kMillisecond, false), base) << "not deterministic at all";
  EXPECT_EQ(RunClusterDigest(0, false), base) << "timeline off changed the simulation";
  EXPECT_EQ(RunClusterDigest(1 * sim::kMillisecond, false), base)
      << "window width changed the simulation";
  EXPECT_EQ(RunClusterDigest(50 * sim::kMillisecond, true), base)
      << "self-profiler changed the simulation";
}

// --- SelfProfiler ------------------------------------------------------------

TEST(SelfProfiler, AttributesEventsToSpawnLabels) {
  sim::Engine engine;
  SelfProfiler profiler(&engine);
  // Hand-built schedule: two labeled roots with a known event count each.
  // Each Spawn produces 1 initial resume + `sleeps` sleep resumes.
  engine.Spawn(
      [](sim::Engine* e) -> sim::Task<> {
        for (int i = 0; i < 4; ++i) {
          co_await e->SleepFor(10);
        }
      }(&engine),
      "alpha.work");
  engine.Spawn(
      [](sim::Engine* e) -> sim::Task<> {
        co_await e->SleepFor(5);
      }(&engine),
      "beta");
  engine.Run();
  profiler.Detach();

  EXPECT_EQ(profiler.total_events(), engine.events_processed());
  std::vector<SelfProfiler::ComponentStat> comps = profiler.Components();
  ASSERT_EQ(comps.size(), 2u);
  uint64_t alpha_events = 0;
  uint64_t beta_events = 0;
  for (const auto& c : comps) {
    if (c.label == "alpha.work") {
      alpha_events = c.events;
    } else if (c.label == "beta") {
      beta_events = c.events;
    } else {
      FAIL() << "unexpected label " << c.label;
    }
  }
  EXPECT_EQ(alpha_events, 5u);  // Initial resume + 4 sleeps.
  EXPECT_EQ(beta_events, 2u);   // Initial resume + 1 sleep.
  EXPECT_EQ(profiler.schedule_calls(), engine.schedule_calls());

  // Folded output: dotted labels become stack frames under "engine".
  std::string folded = profiler.Folded();
  EXPECT_NE(folded.find("engine;alpha;work "), std::string::npos);
  EXPECT_NE(folded.find("engine;beta "), std::string::npos);
  // Summary names components with percentages.
  std::string summary = profiler.Summary(3);
  EXPECT_NE(summary.find("alpha.work"), std::string::npos);
  EXPECT_NE(summary.find('%'), std::string::npos);
}

TEST(SelfProfiler, UnlabeledSpawnsInheritAmbientLabel) {
  sim::Engine engine;
  SelfProfiler profiler(&engine);
  // A labeled root spawns an unlabeled child: the child inherits "parent".
  engine.Spawn(
      [](sim::Engine* e) -> sim::Task<> {
        e->Spawn([](sim::Engine* e2) -> sim::Task<> { co_await e2->SleepFor(1); }(e));
        co_return;
      }(&engine),
      "parent");
  engine.Run();
  profiler.Detach();
  std::vector<SelfProfiler::ComponentStat> comps = profiler.Components();
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].label, "parent");
  EXPECT_EQ(comps[0].events, engine.events_processed());
}

TEST(SelfProfiler, MergeAccumulatesAcrossEngines) {
  SelfProfiler total;  // Accumulator mode.
  for (int round = 0; round < 2; ++round) {
    sim::Engine engine;
    SelfProfiler profiler(&engine);
    engine.Spawn([](sim::Engine* e) -> sim::Task<> { co_await e->SleepFor(1); }(&engine),
                 "work");
    engine.Run();
    profiler.Detach();
    total.MergeFrom(profiler);
  }
  std::vector<SelfProfiler::ComponentStat> comps = total.Components();
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].label, "work");
  EXPECT_EQ(comps[0].events, 4u);  // 2 events per round, merged by name.
}

TEST(SelfProfiler, DetachUninstallsObserver) {
  sim::Engine engine;
  {
    SelfProfiler profiler(&engine);
    EXPECT_EQ(engine.observer(), &profiler);
  }  // Destructor detaches.
  EXPECT_EQ(engine.observer(), nullptr);
}

// --- Engine schedule/clamp counters ------------------------------------------

TEST(Engine, CountsScheduleCallsAndClamps) {
  sim::Engine engine;
  EXPECT_EQ(engine.schedule_calls(), 0u);
  EXPECT_EQ(engine.schedule_clamps(), 0u);
  engine.Spawn([](sim::Engine* e) -> sim::Task<> {
    co_await e->SleepFor(100);  // Forward: no clamp.
    co_await e->SleepUntil(10);  // Past-due: clamped to now.
  }(&engine));
  engine.Run();
  EXPECT_GE(engine.schedule_calls(), 3u);
  EXPECT_EQ(engine.schedule_clamps(), 1u);
}

}  // namespace
}  // namespace linefs::obs
