// Streaming critical-path fold tests. The oracle is a batch sweep over every
// raw span of a run, kept in a ring large enough to drop none: group the
// spans by trace, find each root, sweep. The fold must agree with it op by
// op, and ReportJson() byte for byte, on a run that records more spans than
// TraceBuffer::kDefaultRingCapacity.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/fault/injector.h"
#include "src/fault/schedule.h"
#include "src/obs/critical_path.h"
#include "src/obs/trace.h"
#include "src/workloads/filebench.h"

namespace linefs::obs {
namespace {

constexpr sim::Time kUs = sim::kMicrosecond;

// --- Batch oracle ------------------------------------------------------------

std::vector<TraceEvent> RawSpans(const TraceBuffer& buffer) {
  std::vector<TraceEvent> events;
  buffer.ForEach([&](const TraceEvent& ev) { events.push_back(ev); });
  return events;
}

std::vector<OpBreakdown> BatchOperations(const std::vector<TraceEvent>& all) {
  std::map<uint64_t, std::vector<const TraceEvent*>> by_trace;
  for (const TraceEvent& ev : all) {
    if (ev.trace_id != 0) {
      by_trace[ev.trace_id].push_back(&ev);
    }
  }
  std::vector<OpBreakdown> ops;
  for (const auto& [trace_id, events] : by_trace) {
    std::unordered_map<uint64_t, const TraceEvent*> by_span;
    for (const TraceEvent* ev : events) {
      by_span.emplace(ev->span_id, ev);
    }
    const TraceEvent* root = nullptr;
    for (const TraceEvent* ev : events) {
      if (ev->parent_span != 0 && by_span.count(ev->parent_span) != 0) {
        continue;
      }
      if (root == nullptr || ev->begin < root->begin ||
          (ev->begin == root->begin && ev->span_id < root->span_id)) {
        root = ev;
      }
    }
    OpBreakdown op;
    op.trace_id = trace_id;
    op.root_component = root->component;
    op.root_stage = root->stage;
    op.client = root->client;
    op.begin = root->begin;
    op.end = std::max(root->end, root->begin);
    op.span_count = events.size();
    for (const TraceEvent* ev : events) {
      op.nodes.insert(ev->node);
    }
    std::unordered_map<uint64_t, int> depth;
    depth[root->span_id] = 0;
    for (const TraceEvent* ev : events) {
      std::vector<const TraceEvent*> chain;
      const TraceEvent* cur = ev;
      while (depth.count(cur->span_id) == 0) {
        chain.push_back(cur);
        auto it = by_span.find(cur->parent_span);
        if (cur->parent_span == 0 || it == by_span.end() || it->second == cur) {
          break;
        }
        cur = it->second;
      }
      int d;
      if (depth.count(cur->span_id) != 0) {
        d = depth[cur->span_id];
      } else {
        d = 1;
        depth[cur->span_id] = d;
        chain.pop_back();
      }
      for (size_t i = chain.size(); i-- > 0;) {
        depth[chain[i]->span_id] = ++d;
      }
    }
    struct Clipped {
      const TraceEvent* ev;
      int depth;
      sim::Time begin;
      sim::Time end;
    };
    std::vector<Clipped> spans;
    std::vector<sim::Time> bounds;
    for (const TraceEvent* ev : events) {
      Clipped cs{ev, depth[ev->span_id], std::max(ev->begin, op.begin),
                 std::min(ev->end, op.end)};
      if (cs.end > cs.begin || ev == root) {
        spans.push_back(cs);
        bounds.push_back(cs.begin);
        bounds.push_back(cs.end);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      sim::Time a = bounds[i];
      sim::Time b = bounds[i + 1];
      const Clipped* best = nullptr;
      for (const Clipped& cs : spans) {
        if (cs.begin > a || cs.end < b) {
          continue;
        }
        if (best == nullptr || cs.depth > best->depth ||
            (cs.depth == best->depth &&
             (cs.begin > best->begin ||
              (cs.begin == best->begin && cs.ev->span_id > best->ev->span_id)))) {
          best = &cs;
        }
      }
      std::string stage =
          best->ev == root ? "wait" : CriticalPathAnalyzer::CanonicalStage(best->ev->stage);
      op.stage_ns[stage] += b - a;
      if (!op.segments.empty() && op.segments.back().end == a &&
          op.segments.back().stage == stage && op.segments.back().raw_stage == best->ev->stage &&
          op.segments.back().node == best->ev->node) {
        op.segments.back().end = b;
      } else {
        op.segments.push_back(CriticalSegment{stage, best->ev->stage, best->ev->node, a, b});
      }
    }
    ops.push_back(std::move(op));
  }
  std::sort(ops.begin(), ops.end(), [](const OpBreakdown& a, const OpBreakdown& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.trace_id < b.trace_id;
  });
  return ops;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

JsonValue BatchReport(const std::vector<OpBreakdown>& ops, size_t max_exemplars) {
  std::map<std::string, std::vector<const OpBreakdown*>> groups;
  for (const OpBreakdown& op : ops) {
    groups[op.root_stage].push_back(&op);
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("total_ops", JsonValue(static_cast<double>(ops.size())));
  JsonValue groups_json = JsonValue::Object();
  for (const auto& [stage_name, group] : groups) {
    std::vector<double> durations;
    double total_e2e_us = 0.0;
    for (const OpBreakdown* op : group) {
      durations.push_back(sim::ToMicros(op->duration()));
      total_e2e_us += durations.back();
    }
    std::sort(durations.begin(), durations.end());
    JsonValue g = JsonValue::Object();
    g.Set("ops", JsonValue(static_cast<double>(group.size())));
    JsonValue e2e = JsonValue::Object();
    e2e.Set("mean_us", JsonValue(total_e2e_us / static_cast<double>(durations.size())));
    e2e.Set("p50_us", JsonValue(Percentile(durations, 0.50)));
    e2e.Set("p99_us", JsonValue(Percentile(durations, 0.99)));
    e2e.Set("max_us", JsonValue(durations.back()));
    e2e.Set("total_us", JsonValue(total_e2e_us));
    g.Set("e2e", std::move(e2e));
    std::map<std::string, sim::Time> table;
    for (const OpBreakdown* op : group) {
      for (const auto& [stage, ns] : op->stage_ns) {
        table[stage] += ns;
      }
    }
    JsonValue stages = JsonValue::Object();
    double attributed_us = 0.0;
    for (const auto& [stage, ns] : table) {
      JsonValue s = JsonValue::Object();
      double us = sim::ToMicros(ns);
      attributed_us += us;
      s.Set("total_us", JsonValue(us));
      s.Set("pct", JsonValue(total_e2e_us > 0.0 ? 100.0 * us / total_e2e_us : 0.0));
      stages.Set(stage, std::move(s));
    }
    g.Set("stages", std::move(stages));
    g.Set("attributed_us", JsonValue(attributed_us));
    std::vector<const OpBreakdown*> slowest = group;
    std::sort(slowest.begin(), slowest.end(), [](const OpBreakdown* a, const OpBreakdown* b) {
      return a->duration() != b->duration() ? a->duration() > b->duration()
                                            : a->trace_id < b->trace_id;
    });
    slowest.resize(std::min(slowest.size(), max_exemplars));
    JsonValue exemplars = JsonValue::Array();
    for (const OpBreakdown* op : slowest) {
      JsonValue ex = JsonValue::Object();
      ex.Set("trace_id", JsonValue(static_cast<double>(op->trace_id)));
      ex.Set("root", JsonValue(op->root_component));
      ex.Set("client", JsonValue(op->client));
      ex.Set("begin_us", JsonValue(sim::ToMicros(op->begin)));
      ex.Set("duration_us", JsonValue(sim::ToMicros(op->duration())));
      ex.Set("span_count", JsonValue(static_cast<double>(op->span_count)));
      JsonValue nodes = JsonValue::Array();
      for (int node : op->nodes) {
        nodes.Append(JsonValue(node));
      }
      ex.Set("nodes", std::move(nodes));
      JsonValue segs = JsonValue::Array();
      for (size_t i = 0; i < op->segments.size() && i < 64; ++i) {
        const CriticalSegment& seg = op->segments[i];
        JsonValue sj = JsonValue::Object();
        sj.Set("stage", JsonValue(seg.stage));
        sj.Set("raw", JsonValue(seg.raw_stage));
        sj.Set("node", JsonValue(seg.node));
        sj.Set("begin_us", JsonValue(sim::ToMicros(seg.begin)));
        sj.Set("dur_us", JsonValue(sim::ToMicros(seg.duration())));
        segs.Append(std::move(sj));
      }
      ex.Set("segments", std::move(segs));
      if (op->segments.size() > 64) {
        ex.Set("segments_truncated", JsonValue(true));
      }
      exemplars.Append(std::move(ex));
    }
    g.Set("exemplars", std::move(exemplars));
    groups_json.Set(stage_name, std::move(g));
  }
  doc.Set("groups", std::move(groups_json));
  return doc;
}

std::string BatchReportOf(const TraceBuffer& buffer) {
  return BatchReport(BatchOperations(RawSpans(buffer)), CriticalPathFold::kSlowestKept).Dump(2);
}

// Compares everything but segments, which the fold keeps only for some ops.
void ExpectSameOps(const std::vector<OpBreakdown>& got, const std::vector<OpBreakdown>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(got[i].trace_id, want[i].trace_id);
    EXPECT_EQ(got[i].root_component, want[i].root_component);
    EXPECT_EQ(got[i].root_stage, want[i].root_stage);
    EXPECT_EQ(got[i].client, want[i].client);
    EXPECT_EQ(got[i].begin, want[i].begin);
    EXPECT_EQ(got[i].end, want[i].end);
    EXPECT_EQ(got[i].span_count, want[i].span_count);
    EXPECT_EQ(got[i].nodes, want[i].nodes);
    EXPECT_EQ(got[i].stage_ns, want[i].stage_ns);
    if (!got[i].segments.empty()) {
      ASSERT_EQ(got[i].segments.size(), want[i].segments.size());
      for (size_t k = 0; k < got[i].segments.size(); ++k) {
        EXPECT_EQ(got[i].segments[k].stage, want[i].segments[k].stage);
        EXPECT_EQ(got[i].segments[k].raw_stage, want[i].segments[k].raw_stage);
        EXPECT_EQ(got[i].segments[k].node, want[i].segments[k].node);
        EXPECT_EQ(got[i].segments[k].begin, want[i].segments[k].begin);
        EXPECT_EQ(got[i].segments[k].end, want[i].segments[k].end);
      }
    }
  }
}

// --- A run past the old ring -------------------------------------------------

TEST(CriticalPathFold, MatchesBatchSweepOnRunPastTheOldRing) {
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 256ULL << 20;
  config.log_size = 8ULL << 20;
  config.inode_count = 4096;
  config.chunk_size = 1ULL << 20;
  sim::Engine engine;
  auto cluster = std::make_unique<core::Cluster>(&engine, config);
  // A ring that never wraps: the oracle's copy of every span.
  cluster->trace().EnableRing(1 << 20);
  ASSERT_TRUE(cluster->Start().ok());
  core::LibFs* fs = cluster->CreateClient(0);

  bool done = false;
  engine.Spawn([](core::LibFs* fs, bool* done) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/ring.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> block(4096, 0x7e);
    for (int i = 0; i < 3200; ++i) {
      CO_ASSERT_OK(co_await fs->Write(*fd, block));
      CO_ASSERT_OK(co_await fs->Fsync(*fd));
    }
    *done = true;
  }(fs, &done));
  while (!done && engine.RunOne()) {
  }
  ASSERT_TRUE(done);
  engine.RunUntil(engine.Now() + sim::kSecond);

  const TraceBuffer& trace = cluster->trace();
  EXPECT_GT(trace.total_recorded(), TraceBuffer::kDefaultRingCapacity);
  EXPECT_EQ(trace.dropped(), 0u);
  std::vector<TraceEvent> raw = RawSpans(trace);
  std::vector<OpBreakdown> want = BatchOperations(raw);

  CriticalPathAnalyzer analyzer(&trace);
  std::vector<OpBreakdown> got = analyzer.Operations();
  ExpectSameOps(got, want);
  std::vector<OpBreakdown> fsyncs = analyzer.Operations("fsync");
  EXPECT_EQ(fsyncs.size(), 3200u);
  EXPECT_EQ(CriticalPathAnalyzer::StageTable(fsyncs),
            CriticalPathAnalyzer::StageTable(
                [&] {
                  std::vector<OpBreakdown> w;
                  for (const OpBreakdown& op : want) {
                    if (op.root_stage == "fsync") {
                      w.push_back(op);
                    }
                  }
                  return w;
                }()));
  EXPECT_EQ(analyzer.ReportJson().Dump(2), BatchReport(want, 3).Dump(2));

  cluster->Shutdown();
  engine.Run();
  // Shutdown's late spans change nothing but span counts and node sets.
  ExpectSameOps(analyzer.Operations(), BatchOperations(RawSpans(trace)));
  EXPECT_EQ(analyzer.ReportJson().Dump(2), BatchReportOf(trace));
}

// Fault-window attribution as bench_torture does it: a fold callback takes
// every op as it folds, and the ops still in flight when the windows are read
// count as they stand. Both must equal the batch sweep over every span at
// that instant, and reading the open ops must not fold them: the report after
// shutdown still equals the batch sweep.
using WindowStages = std::vector<std::map<std::string, sim::Time>>;

void AddToWindows(const OpBreakdown& op, const std::vector<fault::FaultEvent>& windows,
                  WindowStages* in_window) {
  for (size_t i = 0; i < windows.size(); ++i) {
    for (const CriticalSegment& seg : op.segments) {
      sim::Time begin = std::max(seg.begin, windows[i].at);
      sim::Time end = std::min(seg.end, windows[i].until);
      if (end > begin) {
        (*in_window)[i][seg.stage] += end - begin;
      }
    }
  }
}

TEST(CriticalPathFold, FaultWindowsMatchBatchSweepAndLeaveTheFoldIntact) {
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 256ULL << 20;
  config.log_size = 8ULL << 20;
  config.inode_count = 1 << 16;
  config.chunk_size = 1ULL << 20;
  config.heartbeat_interval = 200 * sim::kMillisecond;
  config.heartbeat_timeout = 300 * sim::kMillisecond;
  sim::Engine engine;
  auto cluster = std::make_unique<core::Cluster>(&engine, config);
  cluster->trace().EnableRing(1 << 20);
  ASSERT_TRUE(cluster->Start().ok());
  core::LibFs* fs = cluster->CreateClient(0);

  fault::ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 300 * sim::kMillisecond;
  sched.last_heal = 1500 * sim::kMillisecond;
  sched.max_extra_faults = 2;
  fault::FaultPlan plan = fault::RandomPlan(4, sched);
  std::vector<fault::FaultEvent> windows = plan.events();
  fault::Injector injector(cluster.get(), std::move(plan));
  ASSERT_TRUE(injector.Arm().ok());

  WindowStages streamed(windows.size());
  CriticalPathFold& fold = cluster->trace().fold();
  fold.SetFoldCallback([&](const OpBreakdown& op) { AddToWindows(op, windows, &streamed); });

  workloads::Filebench bench(fs, workloads::Filebench::VarmailOptions(48));
  bool done = false;
  engine.Spawn([](workloads::Filebench* bench, bool* done) -> sim::Task<> {
    co_await bench->Preallocate();
    co_await bench->Run(2 * sim::kSecond);
    *done = true;
  }(&bench, &done));
  // Read the windows mid-run, with operations in flight.
  engine.RunUntil(1200 * sim::kMillisecond);
  ASSERT_FALSE(done);
  std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> open = fold.OpenOps();
  EXPECT_FALSE(open.empty());
  for (const auto& [op, segments] : open) {
    AddToWindows(fold.Breakdown(op, &segments), windows, &streamed);
  }
  fold.SetFoldCallback(nullptr);

  const TraceBuffer& trace = cluster->trace();
  ASSERT_EQ(trace.dropped(), 0u);
  WindowStages batch(windows.size());
  for (const OpBreakdown& op : BatchOperations(RawSpans(trace))) {
    AddToWindows(op, windows, &batch);
  }
  EXPECT_EQ(streamed, batch);
  size_t attributed = 0;
  for (const auto& stages : batch) {
    attributed += stages.size();
  }
  EXPECT_GT(attributed, 0u) << "no op overlapped a fault window";

  while (!done && engine.RunOne()) {
  }
  ASSERT_TRUE(done);
  cluster->Shutdown();
  engine.Run();
  EXPECT_EQ(CriticalPathAnalyzer(&trace).ReportJson().Dump(2), BatchReportOf(trace));
}

// --- Hand-driven spans -------------------------------------------------------

// A child that outlives its root keeps the trace open; it is clipped to the
// root's interval exactly as the batch sweep clips it. A span that starts
// after the fold only adds to the op's span count and node set.
TEST(CriticalPathFold, ChildEndingAfterRootIsClippedToTheRoot) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(64);
  Span root(&buffer, "libfs.0", "fsync", 0, 0, 0);
  engine.RunUntil(10 * kUs);
  Span child(&buffer, "nicfs.0", "transfer", 0, 0, 1, root.context());
  engine.RunUntil(40 * kUs);
  root.End();
  EXPECT_TRUE(buffer.fold().folded().empty()) << "folded while a child was open";
  engine.RunUntil(70 * kUs);
  child.End();
  ASSERT_EQ(buffer.fold().folded().size(), 1u);

  CriticalPathAnalyzer analyzer(&buffer);
  std::vector<OpBreakdown> ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].duration(), 40 * kUs);
  std::map<std::string, sim::Time> want{{"replicate-net", 30 * kUs}, {"wait", 10 * kUs}};
  EXPECT_EQ(ops[0].stage_ns, want);
  ExpectSameOps(ops, BatchOperations(RawSpans(buffer)));

  engine.RunUntil(80 * kUs);
  {
    Span late(&buffer, "nicfs.2", "ack", 2, 0, 1, root.context());
    engine.RunUntil(90 * kUs);
  }
  ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].span_count, 3u);
  EXPECT_EQ(ops[0].nodes, (std::set<int>{0, 2}));
  EXPECT_EQ(ops[0].stage_ns, want);
  ExpectSameOps(ops, BatchOperations(RawSpans(buffer)));
  EXPECT_EQ(analyzer.ReportJson().Dump(2), BatchReportOf(buffer));
}

// A trace whose root is still open reports as it stands (rooted at its
// earliest orphan) without being folded; it folds whole once the root ends.
TEST(CriticalPathFold, OpenTracesReportAsTheyStand) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(64);
  std::vector<OpBreakdown> seen;
  buffer.fold().SetFoldCallback([&](const OpBreakdown& op) { seen.push_back(op); });
  Span root(&buffer, "libfs.0", "fsync", 0, 0, 0);
  engine.RunUntil(5 * kUs);
  {
    Span fetch(&buffer, "nicfs.0", "fetch", 0, 0, 1, root.context());
    engine.RunUntil(25 * kUs);
  }
  CriticalPathAnalyzer analyzer(&buffer);
  std::vector<OpBreakdown> ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root_stage, "fetch");
  EXPECT_FALSE(ops[0].segments.empty());
  ExpectSameOps(ops, BatchOperations(RawSpans(buffer)));
  EXPECT_EQ(analyzer.ReportJson().Dump(2), BatchReportOf(buffer));

  EXPECT_TRUE(seen.empty()) << "reading an open trace folded it";
  std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> open = buffer.fold().OpenOps();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(buffer.fold().Breakdown(open[0].first, &open[0].second).stage_ns, ops[0].stage_ns);

  engine.RunUntil(30 * kUs);
  root.End();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].root_stage, "fsync");
  EXPECT_TRUE(buffer.fold().OpenOps().empty());
  ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root_stage, "fsync");
  EXPECT_EQ(ops[0].span_count, 2u);
  ExpectSameOps(ops, BatchOperations(RawSpans(buffer)));
  EXPECT_EQ(analyzer.ReportJson().Dump(2), BatchReportOf(buffer));
}

// Only the slowest kSlowestKept ops per root stage keep their segments, and
// they are the report's exemplars; the fold callback sees every op's.
TEST(CriticalPathFold, KeepsTheSlowestOpsPerRootStage) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(1024);
  size_t callbacks = 0;
  buffer.fold().SetFoldCallback([&](const OpBreakdown& op) {
    ++callbacks;
    EXPECT_FALSE(op.segments.empty());
  });
  uint64_t id = 0;
  auto record_op = [&](const char* root_stage, sim::Time begin, sim::Time duration) {
    uint64_t trace = ++id;
    uint64_t child = ++id;
    buffer.Record(TraceEvent{"nicfs.0", "validate", 0, 0, 0, begin + duration / 4,
                             begin + duration / 2, trace, child, trace});
    buffer.Record(TraceEvent{"libfs.0", root_stage, 0, 0, 0, begin, begin + duration, trace,
                             trace, 0});
  };
  // Durations in a scrambled order, with ties at the top.
  for (int i = 0; i < 40; ++i) {
    sim::Time duration = ((i * 17) % 40 + 1) * kUs;
    if (i == 5 || i == 30) {
      duration = 100 * kUs;
    }
    record_op("fsync", i * 1000 * kUs, duration);
  }
  for (int i = 0; i < 7; ++i) {
    record_op("publish_kick", (50 + i) * 1000 * kUs, (i % 3 + 1) * kUs);
  }
  EXPECT_EQ(callbacks, 47u);
  ASSERT_EQ(buffer.fold().folded().size(), 47u);

  CriticalPathAnalyzer analyzer(&buffer);
  std::vector<OpBreakdown> ops = analyzer.Operations();
  std::vector<OpBreakdown> want = BatchOperations(RawSpans(buffer));
  ExpectSameOps(ops, want);
  std::map<std::string, size_t> with_segments;
  for (const OpBreakdown& op : ops) {
    with_segments[op.root_stage] += op.segments.empty() ? 0 : 1;
  }
  EXPECT_EQ(with_segments["fsync"], CriticalPathFold::kSlowestKept);
  EXPECT_EQ(with_segments["publish_kick"], CriticalPathFold::kSlowestKept);

  JsonValue report = analyzer.ReportJson();
  EXPECT_EQ(report.Dump(2), BatchReport(want, 3).Dump(2));
  const JsonValue* fsync = report.Find("groups")->Find("fsync");
  ASSERT_NE(fsync, nullptr);
  const std::vector<JsonValue>& exemplars = fsync->Find("exemplars")->items();
  ASSERT_EQ(exemplars.size(), 3u);
  // The two 100us ties (lower trace id first), then the slowest of the rest.
  EXPECT_EQ(exemplars[0].Find("trace_id")->AsDouble(), 11);
  EXPECT_EQ(exemplars[1].Find("trace_id")->AsDouble(), 61);
  EXPECT_EQ(exemplars[2].Find("duration_us")->AsDouble(), 40);
  for (const JsonValue& ex : exemplars) {
    double sum = 0;
    for (const JsonValue& seg : ex.Find("segments")->items()) {
      sum += seg.Find("dur_us")->AsDouble();
    }
    EXPECT_DOUBLE_EQ(sum, ex.Find("duration_us")->AsDouble());
  }
  // Fewer exemplars on request, never more than were kept.
  EXPECT_EQ(analyzer.ReportJson(1).Find("groups")->Find("fsync")->Find("exemplars")->items().size(),
            1u);
  EXPECT_EQ(analyzer.ReportJson(10).Dump(2), report.Dump(2));
}

// Oversized traces skip the sweep: the whole interval is "other".
TEST(CriticalPathFold, OversizedTraceCountsAsOther) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  const size_t children = CriticalPathFold::kMaxSpansPerTrace;
  for (uint64_t i = 0; i < children; ++i) {
    buffer.Record(TraceEvent{"nicfs.0", "fetch", 0, 0, 0, 1 * kUs, 2 * kUs, 1, i + 2, 1});
  }
  buffer.Record(TraceEvent{"libfs.0", "fsync", 0, 0, 0, 0, 10 * kUs, 1, 1, 0});
  std::vector<OpBreakdown> ops = CriticalPathAnalyzer(&buffer).Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].span_count, children + 1);
  EXPECT_EQ(ops[0].stage_ns, (std::map<std::string, sim::Time>{{"other", 10 * kUs}}));
}

}  // namespace
}  // namespace linefs::obs
