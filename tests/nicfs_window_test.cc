// Windowed asynchronous data path (fetch prefetching + sliding transfer
// windows + one-way replication control): ordering under drops, watermark
// interaction, the lock-step degenerate case, and scale-down of idle stage
// workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tests/co_test_util.h"

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/obs/trace.h"

namespace linefs::core {
namespace {

DfsConfig Config() {
  DfsConfig config;
  config.mode = DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 32ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  return config;
}

// Node-0 spans of the given stage, ordered by begin time.
std::vector<obs::TraceEvent> StageSpans(const obs::TraceBuffer& trace,
                                        const std::string& component,
                                        const std::string& stage) {
  std::vector<obs::TraceEvent> events;
  trace.ForEach([&](const obs::TraceEvent& ev) {
    if (ev.component == component && ev.stage == stage) {
      events.push_back(ev);
    }
  });
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.chunk_no < b.chunk_no;
            });
  return events;
}

int OverlapCount(const std::vector<obs::TraceEvent>& spans) {
  int overlaps = 0;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].begin < spans[i - 1].end) {
      ++overlaps;
    }
  }
  return overlaps;
}

struct WindowRun {
  std::vector<obs::TraceEvent> transfers;    // Primary-side transfer spans.
  std::vector<obs::TraceEvent> fetches;      // Primary-side fetch spans.
  std::vector<obs::TraceEvent> fsync_waits;  // Primary-side fsync_wait spans.
  sim::Time fsync_done = 0;                  // Simulated time the fsync returned.
};

// Runs a fixed 12MB sequential write + fsync in a fresh cluster and returns
// the primary's stage spans plus the fsync completion time. Used both for the
// lock-step/overlap assertions and for byte-identical rerun checks.
WindowRun RunWindowedWrite(const DfsConfig& config) {
  WindowRun out;
  sim::Engine engine;
  Cluster cluster(&engine, config);
  cluster.trace().EnableRing();  // StageSpans reads raw spans.
  Status start_st = cluster.Start();
  EXPECT_TRUE(start_st.ok()) << start_st.ToString();
  LibFs* fs = cluster.CreateClient(0);

  bool done = false;
  engine.Spawn([](LibFs* fs, sim::Engine* engine, WindowRun* out, bool* done) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/win.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 12ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    out->fsync_done = engine->Now();
    *done = true;
  }(fs, &engine, &out, &done));
  sim::Time deadline = engine.Now() + 600 * sim::kSecond;
  while (!done && engine.Now() < deadline && engine.RunOne()) {
  }
  EXPECT_TRUE(done);

  out.transfers = StageSpans(cluster.trace(), "nicfs.0", "transfer");
  out.fetches = StageSpans(cluster.trace(), "nicfs.0", "fetch");
  out.fsync_waits = StageSpans(cluster.trace(), "nicfs.0", "fsync_wait");
  if (getenv("WINDOW_DEBUG")) {
    NicFs::StatsSnapshot st = cluster.nicfs(0)->stats();
    fprintf(stderr, "=== fd=%d tw=%d fsync_done=%lld stall=%llu\n", config.repl.fetch_depth,
            config.repl.transfer_window, (long long)out.fsync_done,
            (unsigned long long)st.flow_ctrl_stall_ns);
    for (const char* stage : {"fetch", "transfer"}) {
      for (const obs::TraceEvent& ev : StageSpans(cluster.trace(), "nicfs.0", stage)) {
        fprintf(stderr, "  n0 %-9s #%llu [%lld .. %lld]\n", stage,
                (unsigned long long)ev.chunk_no, (long long)ev.begin, (long long)ev.end);
      }
    }
    for (const char* stage : {"repl_recv", "forward", "repl_copy"}) {
      for (const obs::TraceEvent& ev : StageSpans(cluster.trace(), "nicfs.1", stage)) {
        fprintf(stderr, "  n1 %-9s #%llu [%lld .. %lld]\n", stage,
                (unsigned long long)ev.chunk_no, (long long)ev.begin, (long long)ev.end);
      }
    }
  }
  cluster.Shutdown();
  engine.Run();
  return out;
}

class NicFsWindowTest : public ::testing::Test {
 protected:
  void Start(const DfsConfig& config) {
    cluster_ = std::make_unique<Cluster>(&engine_, config);
    cluster_->trace().EnableRing();  // StageSpans reads raw spans.
    Status start_st = cluster_->Start();
    EXPECT_TRUE(start_st.ok()) << start_st.ToString();
  }
  void TearDown() override {
    if (cluster_) {
      cluster_->Shutdown();
      engine_.Run();
    }
  }
  template <typename Fn>
  void Run(Fn&& body) {
    bool done = false;
    engine_.Spawn([](Fn body, bool* done) -> sim::Task<> {
      co_await body();
      *done = true;
    }(std::forward<Fn>(body), &done));
    sim::Time deadline = engine_.Now() + 600 * sim::kSecond;
    while (!done && engine_.Now() < deadline && engine_.RunOne()) {
    }
    ASSERT_TRUE(done);
  }

  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(NicFsWindowTest, ReplicasApplyInOrderUnderDropsWithOpenWindow) {
  DfsConfig config = Config();
  config.repl.fetch_depth = 4;
  config.repl.transfer_window = 4;
  Start(config);
  LibFs* fs = cluster_->CreateClient(0);

  // Seeded fault injection: eat a few of the primary's first one-way
  // replication sends to the chain head. The send-completion error must be
  // counted and the retransmit sweeper must recover without breaking the
  // replicas' client-log apply order.
  int seen = 0;
  cluster_->rpc().SetDropFilter([&seen](int src, int dst, rdma::Channel channel) {
    if (src == 0 && dst == 1 && channel == rdma::Channel::kHighTput) {
      ++seen;
      return seen == 2 || seen == 4;
    }
    return false;
  });

  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/drop.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 16ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  cluster_->rpc().ClearDropFilter();
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  NicFs::StatsSnapshot stats = cluster_->nicfs(0)->stats();
  EXPECT_GT(seen, 0);
  EXPECT_GT(stats.repl_send_failures, 0u);
  EXPECT_GT(stats.repl_retransmits, 0u);

  // Both replicas hold the complete file despite the drops...
  for (int node = 1; node <= 2; ++node) {
    fslib::PublicFs& replica = cluster_->dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "drop.dat");
    ASSERT_TRUE(inum.ok()) << "replica " << node;
    Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 16ULL << 20) << "replica " << node;
  }

  // ...and each replica published chunks strictly in client-log order even
  // though the window let acks/retransmits complete out of order.
  for (int node = 1; node <= 2; ++node) {
    std::vector<obs::TraceEvent> publishes =
        StageSpans(cluster_->trace(), "nicfs." + std::to_string(node), "publish");
    ASSERT_FALSE(publishes.empty()) << "replica " << node;
    for (size_t i = 1; i < publishes.size(); ++i) {
      EXPECT_EQ(publishes[i].chunk_no, publishes[i - 1].chunk_no + 1)
          << "replica " << node << " applied out of order at index " << i;
    }
  }
}

TEST_F(NicFsWindowTest, FailedSendToReplicaDeclaredDeadLeavesNoStash) {
  // Every send from the primary to the chain head fails, and the head is then
  // declared dead, so nothing will ever send to that slot again. A payload
  // stashed by a failed send must not outlive it in the wire stash.
  Start(Config());
  LibFs* fs = cluster_->CreateClient(0);
  cluster_->rpc().SetDropFilter(
      [](int src, int dst, rdma::Channel) { return src == 0 && dst == 1; });
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/lost.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 1ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
  });
  engine_.RunUntil(engine_.Now() + 50 * sim::kMillisecond);
  EXPECT_GT(cluster_->nicfs(0)->stats().repl_send_failures, 0u);
  cluster_->SetServiceAlive(1, false);
  cluster_->rpc().ClearDropFilter();
  engine_.RunUntil(engine_.Now() + sim::kSecond);

  EXPECT_EQ(cluster_->pending_wire(), 0u);
  // The healed chain still replicated the chunk to the surviving replica.
  EXPECT_GT(cluster_->nicfs(0)->replicated_upto(0), 0u);
}

TEST_F(NicFsWindowTest, RetransmitRacingTheOriginalDeliveryLeavesNoEmptyHandedAck) {
  // The chain head's NIC stalls with the original delivery of chunk 0 queued.
  // The sweeper's retransmit to it is stashed for the same chunk, then lost on
  // the wire, so its sender withdraws it. When the head resumes, the original
  // delivery must still find its own payload: an ack vouches that this
  // delivery wrote the range into the replica's log.
  Start(Config());
  LibFs* fs = cluster_->CreateClient(0);
  cluster_->hw_node(1).StallNic();
  bool synced = false;
  engine_.Spawn([](LibFs* fs, bool* synced) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/race.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await fs->PwriteGen(*fd, 256 << 10, 0, 7));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    *synced = true;
  }(fs, &synced));
  // The original delivery is on the head's queue pair well before the
  // sweeper's first retransmit (kReplRetryTimeout, 150 ms).
  engine_.RunUntil(engine_.Now() + 100 * sim::kMillisecond);
  cluster_->rpc().SetDropFilter([](int src, int dst, rdma::Channel) {
    return src == 0 && dst == 1;
  });
  engine_.RunUntil(engine_.Now() + 150 * sim::kMillisecond);
  EXPECT_GT(cluster_->nicfs(0)->stats().repl_retransmits, 0u);
  EXPECT_GT(cluster_->nicfs(0)->stats().repl_send_failures, 0u);
  EXPECT_FALSE(synced);
  cluster_->rpc().ClearDropFilter();
  cluster_->hw_node(1).ResumeNic();
  engine_.RunUntil(engine_.Now() + sim::kSecond);
  ASSERT_TRUE(synced);

  fslib::LogArea& primary = cluster_->dfs_node(0).client_log(0);
  Result<fslib::LogRange> want = primary.Export(0, primary.tail());
  ASSERT_TRUE(want.ok());
  for (int node = 1; node <= 2; ++node) {
    Result<fslib::LogRange> got =
        cluster_->dfs_node(node).client_log(0).Export(0, primary.tail());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->image == want->image) << "replica " << node << " acked a log it lacks";
    EXPECT_TRUE(
        cluster_->dfs_node(node).fs().LookupChild(fslib::kRootInode, "race.dat").ok())
        << "replica " << node;
  }
  EXPECT_EQ(cluster_->pending_wire(), 0u);
}

TEST_F(NicFsWindowTest, OpenWindowStillRespectsNicMemoryWatermarks) {
  DfsConfig config = Config();
  // A wide-open window against a tiny NIC memory: the §4 watermark gate in
  // fetch admission must keep utilisation bounded regardless of credit count.
  config.repl.fetch_depth = 8;
  config.repl.transfer_window = 8;
  config.node_params.nic.mem_capacity = 4ULL << 20;
  Start(config);
  LibFs* fs = cluster_->CreateClient(0);

  // Shared with the sampler: it runs on to 30 s of virtual time, past this
  // body and into TearDown's drain.
  auto peak_mem = std::make_shared<uint64_t>(0);
  engine_.Spawn([](sim::Engine* engine, Cluster* cluster,
                   std::shared_ptr<uint64_t> peak) -> sim::Task<> {
    while (engine->Now() < 30 * sim::kSecond) {
      *peak = std::max(*peak, cluster->hw_node(0).nic().mem_used());
      co_await engine->SleepFor(100 * sim::kMicrosecond);
    }
  }(&engine_, cluster_.get(), peak_mem));

  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/wm.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 16ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  EXPECT_LE(*peak_mem, 4ULL << 20);
  EXPECT_GT(*peak_mem, 0u);
  EXPECT_GT(cluster_->nicfs(0)->stats().flow_ctrl_stall_ns, 0u);
  fslib::PublicFs& replica = cluster_->dfs_node(2).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "wm.dat");
  ASSERT_TRUE(inum.ok());
  Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 16ULL << 20);
}

void ExpectSameSpans(const std::vector<obs::TraceEvent>& a,
                     const std::vector<obs::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin) << "index " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "index " << i;
    EXPECT_EQ(a[i].chunk_no, b[i].chunk_no) << "index " << i;
  }
}

TEST(NicFsWindowSchedule, DepthOneIsLockStepAndDeterministic) {
  // A window of 1 is the lock-step point of the one windowed path.
  DfsConfig config = Config();
  config.repl.fetch_depth = 1;
  config.repl.transfer_window = 1;

  WindowRun first = RunWindowedWrite(config);
  ASSERT_GE(first.transfers.size(), 8u);
  ASSERT_FALSE(first.fsync_waits.empty());
  // One transfer credit: no two transfer spans on the primary ever overlap.
  EXPECT_EQ(OverlapCount(first.transfers), 0);
  // One fetch credit: two fetch DMAs overlap only while an fsync waits on the
  // pipe, because urgent admissions bypass the credit (DESIGN.md §10).
  sim::Time prev_end = 0;
  for (const obs::TraceEvent& f : first.fetches) {
    if (f.begin < prev_end) {
      sim::Time overlap_end = std::min(f.end, prev_end);
      bool inside = std::any_of(first.fsync_waits.begin(), first.fsync_waits.end(),
                                [&](const obs::TraceEvent& w) {
                                  return w.begin <= f.begin && overlap_end <= w.end;
                                });
      EXPECT_TRUE(inside) << "fetch #" << f.chunk_no << " overlaps outside fsync_wait";
    }
    prev_end = std::max(prev_end, f.end);
  }

  // Determinism: an identical rerun reproduces the schedule event-for-event.
  WindowRun second = RunWindowedWrite(config);
  ExpectSameSpans(first.transfers, second.transfers);
  ExpectSameSpans(first.fetches, second.fetches);
  EXPECT_EQ(first.fsync_done, second.fsync_done);
}

TEST(NicFsWindowSchedule, OpenWindowOverlapsTransfersAndIsNoSlower) {
  DfsConfig lockstep = Config();
  lockstep.repl.fetch_depth = 1;
  lockstep.repl.transfer_window = 1;
  WindowRun serial = RunWindowedWrite(lockstep);

  DfsConfig windowed = Config();
  windowed.repl.fetch_depth = 4;
  windowed.repl.transfer_window = 4;
  WindowRun overlapped = RunWindowedWrite(windowed);

  ASSERT_GE(overlapped.transfers.size(), 8u);
  // The window genuinely admits concurrent transfers...
  EXPECT_GT(OverlapCount(overlapped.transfers), 0);
  // ...transfer submission still follows client-log order...
  for (size_t i = 1; i < overlapped.transfers.size(); ++i) {
    EXPECT_EQ(overlapped.transfers[i].chunk_no, overlapped.transfers[i - 1].chunk_no + 1);
  }
  // ...and the end-to-end schedule is monotone: windowing never loses to
  // lock-step on the same workload.
  EXPECT_LE(overlapped.fsync_done, serial.fsync_done);

  // Determinism holds for the windowed schedule too.
  WindowRun again = RunWindowedWrite(windowed);
  EXPECT_EQ(overlapped.fsync_done, again.fsync_done);
  ExpectSameSpans(overlapped.transfers, again.transfers);
}

TEST_F(NicFsWindowTest, ScalingRetiresIdleExtraWorkers) {
  DfsConfig config = Config();
  config.stage_queue_threshold = 1;  // Scale up aggressively.
  Start(config);
  LibFs* fs = cluster_->CreateClient(0);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/sd.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 48ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  // The burst is over; give stage scaling a few idle checks.
  engine_.RunUntil(engine_.Now() + 2 * sim::kSecond);
  NicFs::StatsSnapshot stats = cluster_->nicfs(0)->stats();
  EXPECT_GT(stats.chunks_fetched, 40u);
  // Extra validate workers added during the burst were retired again once the
  // stage queue stayed under threshold.
  EXPECT_GT(stats.stage_workers_retired, 0u);
}

}  // namespace
}  // namespace linefs::core
