// Causal-tracing and critical-path tests: context propagation across the
// whole pipeline (one fsync => one connected span tree spanning the primary
// and both replicas), the attribution math on a hand-built span DAG, the
// ring-drop counter mirror, and byte-identical trace export determinism.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace linefs::obs {
namespace {

using core::Cluster;
using core::DfsConfig;
using core::DfsMode;
using core::LibFs;

DfsConfig SmallConfig(DfsMode mode) {
  DfsConfig config;
  config.mode = mode;
  config.num_nodes = 3;
  config.pm_size = 256ULL << 20;
  config.log_size = 8ULL << 20;
  config.inode_count = 4096;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  return config;
}

class ClusterHarness {
 public:
  explicit ClusterHarness(const DfsConfig& config) {
    cluster_ = std::make_unique<Cluster>(&engine_, config);
    Status start_st = cluster_->Start();
    EXPECT_TRUE(start_st.ok()) << start_st.ToString();
  }

  ~ClusterHarness() {
    cluster_->Shutdown();
    engine_.Run();
  }

  template <typename Fn>
  void RunClient(Fn&& body) {
    bool done = false;
    engine_.Spawn([](Fn body, bool* done) -> sim::Task<> {
      co_await body();
      *done = true;
    }(std::forward<Fn>(body), &done));
    sim::Time deadline = engine_.Now() + 600 * sim::kSecond;
    while (!done && engine_.Now() < deadline && engine_.RunOne()) {
    }
    ASSERT_TRUE(done) << "client task did not complete (deadlock or starvation)";
  }

  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  sim::Engine& engine() { return engine_; }
  Cluster& cluster() { return *cluster_; }

 private:
  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
};

// Writes a MB and fsyncs it; the trace buffer afterwards must hold exactly one
// fsync-rooted trace and it must be a single connected tree whose spans touch
// the primary and both replicas.
TEST(TracePropagation, FsyncYieldsOneConnectedCrossNodeTree) {
  ClusterHarness harness(SmallConfig(DfsMode::kLineFS));
  harness.cluster().trace().EnableRing();  // The tree checks read raw spans.
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data(1 << 20, 0x5a);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/trace.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> n = co_await fs->Write(*fd, data);
    CO_ASSERT_OK(n);
    Status st = co_await fs->Fsync(*fd);
    CO_ASSERT_OK(st);
  });
  harness.Drain(2 * sim::kSecond);  // Let publish / ack tails land.

  // Find the fsync root minted by LibFs.
  const TraceBuffer& trace = harness.cluster().trace();
  uint64_t fsync_trace = 0;
  int fsync_roots = 0;
  trace.ForEach([&](const TraceEvent& ev) {
    if (ev.stage == "fsync" && ev.parent_span == 0) {
      ++fsync_roots;
      fsync_trace = ev.trace_id;
    }
  });
  ASSERT_EQ(fsync_roots, 1);
  ASSERT_NE(fsync_trace, 0u);

  // Collect the tree and check connectivity: every non-root span's parent is
  // present, and there is exactly one root.
  std::set<uint64_t> span_ids;
  std::vector<TraceEvent> events;
  trace.ForEach([&](const TraceEvent& ev) {
    if (ev.trace_id == fsync_trace) {
      span_ids.insert(ev.span_id);
      events.push_back(ev);
    }
  });
  ASSERT_GE(events.size(), 5u) << "expected fetch/validate/transfer/recv/ack spans";
  int roots = 0;
  std::set<int> nodes;
  std::set<std::string> stages;
  for (const TraceEvent& ev : events) {
    nodes.insert(ev.node);
    stages.insert(ev.stage);
    if (ev.parent_span == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(span_ids.count(ev.parent_span) != 0)
          << "dangling parent " << ev.parent_span << " for " << ev.component << "/" << ev.stage;
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_GE(nodes.size(), 3u) << "trace must span primary + both replicas";
  EXPECT_TRUE(stages.count("repl_recv") != 0) << "replica receive not in the tree";

  // The analyzer view: one fsync operation, attributed exactly.
  CriticalPathAnalyzer analyzer(&trace);
  std::vector<OpBreakdown> ops = analyzer.Operations("fsync");
  ASSERT_EQ(ops.size(), 1u);
  const OpBreakdown& op = ops[0];
  EXPECT_EQ(op.trace_id, fsync_trace);
  EXPECT_GE(op.nodes.size(), 3u);
  EXPECT_GT(op.duration(), 0);
  sim::Time attributed = 0;
  for (const auto& [stage, ns] : op.stage_ns) {
    attributed += ns;
  }
  // The sweep partitions the root interval, so stage times sum to e2e exactly.
  EXPECT_EQ(attributed, op.duration());
  EXPECT_GT(op.stage_ns.count("replicate-net"), 0u);
}

// Hand-built DAG with known geometry: checks depth resolution, deepest-span
// attribution, clipping, and that per-stage sums partition the root interval.
//
//   root  fsync      [  0,100)us               -> "wait" where nothing deeper
//   +-- fetch        [ 10, 30)us  (depth 1)    -> copy      20us
//   +-- transfer     [ 30, 80)us  (depth 1)    -> replicate-net
//       +-- ack      [ 70, 90)us  (depth 2)    -> ack       20us (shadows transfer)
TEST(CriticalPath, AttributesHandBuiltDag) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  const sim::Time us = sim::kMicrosecond;
  // Recorded in end order, as spans finish in a run: the root folds last.
  buffer.Record(TraceEvent{"nicfs.0", "fetch", 0, 0, 0, 10 * us, 30 * us, 1, 2, 1});
  buffer.Record(TraceEvent{"nicfs.0", "transfer", 0, 0, 0, 30 * us, 80 * us, 1, 3, 1});
  buffer.Record(TraceEvent{"nicfs.1", "ack", 1, 0, 0, 70 * us, 90 * us, 1, 4, 3});
  buffer.Record(TraceEvent{"libfs.0", "fsync", 0, 0, 0, 0, 100 * us, 1, 1, 0});

  CriticalPathAnalyzer analyzer(&buffer);
  std::vector<OpBreakdown> ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  const OpBreakdown& op = ops[0];
  EXPECT_EQ(op.root_stage, "fsync");
  EXPECT_EQ(op.duration(), 100 * us);
  EXPECT_EQ(op.span_count, 4u);
  EXPECT_EQ(op.nodes, (std::set<int>{0, 1}));

  std::map<std::string, sim::Time> want{{"copy", 20 * us},
                                        {"replicate-net", 40 * us},
                                        {"ack", 20 * us},
                                        {"wait", 20 * us}};
  EXPECT_EQ(op.stage_ns, want);

  // The attributed timeline, in order.
  ASSERT_EQ(op.segments.size(), 5u);
  EXPECT_EQ(op.segments[0].stage, "wait");
  EXPECT_EQ(op.segments[1].stage, "copy");
  EXPECT_EQ(op.segments[1].raw_stage, "fetch");
  EXPECT_EQ(op.segments[2].stage, "replicate-net");
  EXPECT_EQ(op.segments[3].stage, "ack");
  EXPECT_EQ(op.segments[3].node, 1);
  EXPECT_EQ(op.segments[4].stage, "wait");

  sim::Time attributed = 0;
  for (const auto& [stage, ns] : op.stage_ns) {
    attributed += ns;
  }
  EXPECT_EQ(attributed, op.duration());
}

// A child whose parent was never recorded must still attach under the root
// (depth 1) instead of being lost or becoming a second root.
TEST(CriticalPath, DanglingParentChainsAttachUnderRoot) {
  sim::Engine engine;
  TraceBuffer buffer(&engine);
  const sim::Time us = sim::kMicrosecond;
  // Span 9's parent (span 7) was never recorded.
  buffer.Record(TraceEvent{"nicfs.0", "transfer", 0, 0, 0, 20 * us, 60 * us, 1, 9, 7});
  buffer.Record(TraceEvent{"libfs.0", "fsync", 0, 0, 0, 0, 100 * us, 1, 1, 0});

  CriticalPathAnalyzer analyzer(&buffer);
  std::vector<OpBreakdown> ops = analyzer.Operations();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root_stage, "fsync");
  EXPECT_EQ(ops[0].stage_ns.at("replicate-net"), 40 * us);
  EXPECT_EQ(ops[0].stage_ns.at("wait"), 60 * us);
}

TEST(TraceBufferDrops, CounterMirrorsRingOverflow) {
  sim::Engine engine;
  MetricsRegistry registry;
  TraceBuffer buffer(&engine);
  buffer.EnableRing(4);
  buffer.SetDroppedCounter(MetricScope(&registry, "obs.trace").CounterAt("dropped"));
  for (uint64_t i = 0; i < 10; ++i) {
    buffer.Record(TraceEvent{"c", "s", 0, 0, i, 0, 1});
  }
  EXPECT_EQ(buffer.dropped(), 6u);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("obs.trace.dropped"), 6u);
}

// Same config, same workload => byte-identical Chrome JSON export, including
// every span id. This is what makes trace diffs meaningful across runs.
TEST(TraceDeterminism, ExportIsByteIdenticalAcrossRuns) {
  auto run_once = []() -> std::string {
    ClusterHarness harness(SmallConfig(DfsMode::kLineFS));
    harness.cluster().trace().EnableRing();
    LibFs* fs = harness.cluster().CreateClient(0);
    std::vector<uint8_t> data(512 << 10, 0x3c);
    harness.RunClient([&]() -> sim::Task<> {
      Result<int> fd =
          co_await fs->Open("/det.dat", fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      Result<uint64_t> n = co_await fs->Write(*fd, data);
      CO_ASSERT_OK(n);
      Status st = co_await fs->Fsync(*fd);
      CO_ASSERT_OK(st);
    });
    harness.Drain(sim::kSecond);
    return harness.cluster().trace().ToChromeJson();
  };
  std::string first = run_once();
  std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace linefs::obs
