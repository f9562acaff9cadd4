// NICFS mechanics that the end-to-end suites don't pin down directly:
// replication flow control via NIC memory watermarks (§4), compression-stage
// bypass under backlog (§3.3.2), NICFS fail-stop error semantics (§3.6), and
// dynamic stage scaling (§3.1).

#include <gtest/gtest.h>

#include <memory>

#include "tests/co_test_util.h"

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"

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

class NicFsMechanicsTest : public ::testing::Test {
 protected:
  void Start(const DfsConfig& config) {
    cluster_ = std::make_unique<Cluster>(&engine_, config);
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

TEST_F(NicFsMechanicsTest, FlowControlPausesFetchAtHighWatermark) {
  DfsConfig config = Config();
  // Tiny NIC memory: 4MB with a 70% watermark => at most ~2 chunks in flight.
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
    Result<int> fd = co_await fs->Open("/fc.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 16ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  // All 16MB made it through a 4MB NIC memory without exceeding capacity
  // (flow control paced the fetch stage), and the data is on the replicas.
  EXPECT_LE(*peak_mem, 4ULL << 20);
  EXPECT_GT(*peak_mem, 0u);
  fslib::PublicFs& replica = cluster_->dfs_node(2).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "fc.dat");
  ASSERT_TRUE(inum.ok());
  Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 16ULL << 20);
}

TEST_F(NicFsMechanicsTest, CompressionBypassesWhenBacklogged) {
  DfsConfig config = Config();
  config.pipeline_stages = "validate,compress";
  config.compression_threads = 1;   // Starve the stage.
  config.max_stage_workers = 1;     // No scaling relief.
  config.stage_queue_threshold = 1;
  Start(config);
  LibFs* fs = cluster_->CreateClient(0);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/cb.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 24ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);
  NicFs::StatsSnapshot stats = cluster_->nicfs(0)->stats();
  // Some chunks skipped the overloaded compression stage (§3.3.2)...
  EXPECT_GT(stats.stages.at("compress").bypassed, 0u);
  // ...but everything still replicated correctly.
  fslib::PublicFs& replica = cluster_->dfs_node(1).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "cb.dat");
  ASSERT_TRUE(inum.ok());
}

TEST_F(NicFsMechanicsTest, NicFsFailureReturnsErrorsToClients) {
  Start(Config());
  LibFs* fs = cluster_->CreateClient(0);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/pre.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, 1 << 20, 0, 1)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  // The primary's NICFS dies (SmartNIC process failure). Per §3.6, local
  // LibFSes get error codes on further file system access.
  cluster_->SetServiceAlive(0, false);
  Run([&]() -> sim::Task<> {
    // A fresh-file create needs a lease from the dead NICFS.
    Result<int> fd = co_await fs->Open("/post.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    EXPECT_FALSE(fd.ok());
    // fsync of the old file cannot reach NICFS either.
    Result<int> old_fd = co_await fs->Open("/pre.dat", fslib::kOpenWrite);
    if (old_fd.ok()) {
      Status st = co_await fs->Fsync(*old_fd);
      EXPECT_FALSE(st.ok());
    }
  });
  // The already-replicated data is intact on the replicas (give their
  // publication pipelines a moment to finish digesting).
  engine_.RunUntil(engine_.Now() + 3 * sim::kSecond);
  fslib::PublicFs& replica = cluster_->dfs_node(1).fs();
  EXPECT_TRUE(replica.LookupChild(fslib::kRootInode, "pre.dat").ok());
}

TEST_F(NicFsMechanicsTest, StageScalingAddsValidateWorkers) {
  DfsConfig config = Config();
  config.stage_queue_threshold = 1;  // Scale aggressively.
  Start(config);
  LibFs* fs = cluster_->CreateClient(0);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/sc.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 48ULL << 20, 0, 1);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  // 48 chunks through the pipeline with an aggressive threshold: the scaling
  // monitor must have grown the validation stage.
  EXPECT_GT(cluster_->nicfs(0)->stats().chunks_fetched, 40u);
}

}  // namespace
}  // namespace linefs::core
