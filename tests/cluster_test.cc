// Integration tests: a full 3-node cluster (hardware models, RDMA, RPC,
// LineFS or an Assise baseline, cluster manager) driven through the LibFS
// POSIX-ish API. Parameterized across every DFS mode where behaviour must be
// identical; LineFS-specific mechanics (isolated mode, flow control, recovery)
// are exercised separately.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/clustermgr.h"
#include "src/core/kworker.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/core/sharedfs.h"

namespace linefs::core {
namespace {

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
    engine_.Run();  // Drain service loops.
  }

  // Runs a client task to completion (the engine keeps background services
  // alive, so we step until the flag flips).
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

  // Lets background pipelines catch up for `t` of simulated time.
  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  sim::Engine& engine() { return engine_; }
  Cluster& cluster() { return *cluster_; }

 private:
  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
};

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

class DfsModeTest : public ::testing::TestWithParam<DfsMode> {};

TEST_P(DfsModeTest, CreateWriteFsyncRead) {
  ClusterHarness harness(SmallConfig(GetParam()));
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data = Pattern(100000, 3);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/test.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> n = co_await fs->Write(*fd, data);
    CO_ASSERT_OK(n);
    EXPECT_EQ(*n, data.size());
    Status st = co_await fs->Fsync(*fd);
    CO_ASSERT_OK(st);

    // Read-your-writes through the private-log index + public area.
    std::vector<uint8_t> out(data.size());
    Result<uint64_t> r = co_await fs->Pread(*fd, out, 0);
    CO_ASSERT_OK(r);
    EXPECT_EQ(*r, data.size());
    EXPECT_EQ(out, data);
    co_await fs->Close(*fd);
  });
}

TEST_P(DfsModeTest, DataIsReplicatedToAllNodes) {
  ClusterHarness harness(SmallConfig(GetParam()));
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data = Pattern(3 << 20, 9);  // 3 chunks' worth.

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/repl.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> n = co_await fs->Write(*fd, data);
    CO_ASSERT_OK(n);
    Status st = co_await fs->Fsync(*fd);
    CO_ASSERT_OK(st);
  });
  // After fsync the log is durable on every replica; give the background
  // publication pipelines time to digest everywhere.
  harness.Drain(5 * sim::kSecond);

  for (int node = 0; node < 3; ++node) {
    fslib::PublicFs& pub = harness.cluster().dfs_node(node).fs();
    Result<fslib::InodeNum> inum = pub.LookupChild(fslib::kRootInode, "repl.dat");
    ASSERT_TRUE(inum.ok()) << "node " << node << ": " << inum.status().ToString();
    Result<fslib::FileAttr> attr = pub.GetAttr(*inum);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, data.size()) << "node " << node;
    std::vector<uint8_t> out(data.size());
    Result<uint64_t> r = pub.ReadData(*inum, 0, out);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(out, data) << "node " << node << " content mismatch";
  }
}

TEST_P(DfsModeTest, NamespaceOperations) {
  ClusterHarness harness(SmallConfig(GetParam()));
  LibFs* fs = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    CO_ASSERT_OK((co_await fs->Mkdir("/dir")));
    Result<int> fd = co_await fs->Open("/dir/a.txt", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data = Pattern(5000, 1);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    co_await fs->Close(*fd);

    // Rename within the tree.
    CO_ASSERT_OK((co_await fs->Rename("/dir/a.txt", "/dir/b.txt")));
    Result<fslib::FileAttr> stat = co_await fs->Stat("/dir/b.txt");
    CO_ASSERT_OK(stat);
    EXPECT_EQ(stat->size, 5000u);
    EXPECT_FALSE((co_await fs->Stat("/dir/a.txt")).ok());

    // Directory listing merges pending and published names.
    Result<std::vector<std::string>> names = co_await fs->ReadDir("/dir");
    CO_ASSERT_OK(names);
    CO_ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[0], "b.txt");

    // Unlink removes it.
    CO_ASSERT_OK((co_await fs->Unlink("/dir/b.txt")));
    EXPECT_FALSE((co_await fs->Stat("/dir/b.txt")).ok());
    Result<int> fd2 = co_await fs->Open("/dir/b.txt", fslib::kOpenRead);
    EXPECT_FALSE(fd2.ok());
  });
}

TEST_P(DfsModeTest, OverwriteAndTruncate) {
  ClusterHarness harness(SmallConfig(GetParam()));
  LibFs* fs = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/t.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> base = Pattern(64000, 2);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, base, 0)));
    std::vector<uint8_t> patch = Pattern(1000, 200);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, patch, 30000)));

    std::vector<uint8_t> expect = base;
    std::copy(patch.begin(), patch.end(), expect.begin() + 30000);
    std::vector<uint8_t> out(base.size());
    Result<uint64_t> r = co_await fs->Pread(*fd, out, 0);
    CO_ASSERT_OK(r);
    EXPECT_EQ(out, expect);

    CO_ASSERT_OK((co_await fs->Ftruncate(*fd, 10000)));
    Result<fslib::FileAttr> stat = co_await fs->Stat("/t.dat");
    CO_ASSERT_OK(stat);
    EXPECT_EQ(stat->size, 10000u);
    Result<uint64_t> r2 = co_await fs->Pread(*fd, out, 0);
    CO_ASSERT_OK(r2);
    EXPECT_EQ(*r2, 10000u);
  });
}

TEST_P(DfsModeTest, ReadAfterPublicationMatchesPendingRead) {
  ClusterHarness harness(SmallConfig(GetParam()));
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data = Pattern(2 << 20, 7);
  std::vector<uint8_t> before(data.size());
  std::vector<uint8_t> after(data.size());

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/pub.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    Result<uint64_t> r = co_await fs->Pread(*fd, before, 0);  // From the log index.
    CO_ASSERT_OK(r);
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
    co_return;
  });
  harness.Drain(5 * sim::kSecond);  // Publication completes; index drops entries.

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/pub.dat", fslib::kOpenRead);
    CO_ASSERT_OK(fd);
    Result<uint64_t> r = co_await fs->Pread(*fd, after, 0);  // From public PM.
    CO_ASSERT_OK(r);
    EXPECT_EQ(*r, data.size());
    co_return;
  });
  EXPECT_EQ(before, data);
  EXPECT_EQ(after, data);
}

TEST_P(DfsModeTest, LogReclaimAllowsWritingPastLogCapacity) {
  DfsConfig config = SmallConfig(GetParam());
  config.log_size = 4ULL << 20;  // Tiny log: 4MB.
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/big.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    // Write 16MB through a 4MB log: requires publication + reclaim to keep up.
    std::vector<uint8_t> block = Pattern(256 << 10, 4);
    for (int i = 0; i < 64; ++i) {
      Result<uint64_t> n = co_await fs->Write(*fd, block);
      CO_ASSERT_OK(n);
    }
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
    Result<fslib::FileAttr> stat = co_await fs->Stat("/big.dat");
    CO_ASSERT_OK(stat);
    EXPECT_EQ(stat->size, 16ULL << 20);
  });
  EXPECT_GE(fs->stats().log_stall_waits, 0u);
}

TEST_P(DfsModeTest, MultipleClientsConcurrently) {
  ClusterHarness harness(SmallConfig(GetParam()));
  std::vector<LibFs*> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(harness.cluster().CreateClient(0));
  }
  int finished = 0;
  for (int c = 0; c < 4; ++c) {
    harness.engine().Spawn([](LibFs* fs, int c, int* finished) -> sim::Task<> {
      std::string path = "/client" + std::to_string(c) + ".dat";
      Result<int> fd = co_await fs->Open(path, fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      std::vector<uint8_t> data(512 << 10, static_cast<uint8_t>(c + 1));
      for (int i = 0; i < 4; ++i) {
        CO_ASSERT_OK((co_await fs->Write(*fd, data)));
      }
      CO_ASSERT_OK((co_await fs->Fsync(*fd)));
      ++*finished;
    }(clients[c], c, &finished));
  }
  sim::Time deadline = harness.engine().Now() + 600 * sim::kSecond;
  while (finished < 4 && harness.engine().Now() < deadline && harness.engine().RunOne()) {
  }
  ASSERT_EQ(finished, 4);
  harness.Drain(5 * sim::kSecond);
  for (int c = 0; c < 4; ++c) {
    std::string name = "client" + std::to_string(c) + ".dat";
    Result<fslib::InodeNum> inum =
        harness.cluster().dfs_node(1).fs().LookupChild(fslib::kRootInode, name);
    EXPECT_TRUE(inum.ok()) << name << " missing on replica 1";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DfsModeTest,
                         ::testing::Values(DfsMode::kLineFS, DfsMode::kLineFSNotParallel,
                                           DfsMode::kAssise, DfsMode::kAssiseBgRepl,
                                           DfsMode::kAssiseHyperloop),
                         [](const ::testing::TestParamInfo<DfsMode>& info) {
                           std::string name = DfsModeName(info.param);
                           for (char& c : name) {
                             if (c == '-' || c == '+') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- LineFS-specific mechanics ------------------------------------------------------

TEST(LineFsTest, CompressionRoundTripsThroughReplication) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.pipeline_stages = "validate,compress";
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);
  // Highly compressible data.
  std::vector<uint8_t> data(2 << 20, 0);
  for (size_t i = 0; i < data.size(); i += 7) {
    data[i] = static_cast<uint8_t>(i % 5);
  }

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/comp.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
  });
  harness.Drain(5 * sim::kSecond);

  NicFs* primary = harness.cluster().nicfs(0);
  EXPECT_GT(primary->stats().raw_repl_bytes, 0u);
  EXPECT_LT(primary->stats().wire_bytes, primary->stats().raw_repl_bytes / 2)
      << "compression should have saved network bytes";

  // Replica content must still be byte-identical after decompression.
  fslib::PublicFs& replica = harness.cluster().dfs_node(1).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "comp.dat");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(replica.ReadData(*inum, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(LineFsTest, AdaptiveReadPathRoutesBySize) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.read_path = "adaptive";
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data = Pattern(1 << 20, 9);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/route.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));

    // Below the threshold: stays on the host route.
    std::vector<uint8_t> small(16 << 10);
    CO_ASSERT_OK((co_await fs->Pread(*fd, small, 0)));
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 0u);

    // At/above the threshold with an idle NIC: routed through the NIC RPC,
    // and the bytes still come back correct (the NIC path only changes the
    // timing model, not the materialized data).
    std::vector<uint8_t> big(256 << 10);
    Result<uint64_t> r = co_await fs->Pread(*fd, big, 0);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, big.size());
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 1u);
    CO_ASSERT_TRUE(std::equal(big.begin(), big.end(), data.begin()));
    co_await fs->Close(*fd);
  });

  // The NIC side must have billed the same reads.
  NicFs* primary = harness.cluster().nicfs(0);
  EXPECT_EQ(primary->stats().nic_reads, 1u);
  EXPECT_EQ(primary->stats().nic_read_bytes, 256u << 10);
}

TEST(LineFsTest, AdaptiveReadPathRoutesByNicLoad) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.read_path = "adaptive";
  config.read_nic_load_max = 0.25;
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);
  NicFs* primary = harness.cluster().nicfs(0);
  std::vector<uint8_t> data = Pattern(256 << 10, 3);
  std::vector<uint8_t> bulk = Pattern(6 << 20, 5);
  int fd = -1;
  int bulk_fd = -1;
  double loaded = 0;

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> opened = co_await fs->Open("/load.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(opened);
    fd = *opened;
    CO_ASSERT_OK((co_await fs->Write(fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(fd)));

    // A large unsynced write fills the primary's fetch window and stage
    // queues: a read above the size threshold stays on the host route.
    opened = co_await fs->Open("/bulk.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(opened);
    bulk_fd = *opened;
    CO_ASSERT_OK((co_await fs->Write(bulk_fd, bulk)));
    std::vector<uint8_t> big(data.size());
    Result<uint64_t> r = co_await fs->Pread(fd, big, 0);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, big.size());
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 0u);
    CO_ASSERT_TRUE(std::equal(big.begin(), big.end(), data.begin()));
    loaded = primary->nic_load();
    CO_ASSERT_TRUE(loaded >= config.read_nic_load_max);
    CO_ASSERT_OK((co_await fs->Fsync(bulk_fd)));
  });

  // With the pipe drained, the load decays over idle virtual time with no
  // periodic task feeding it: 20 ms is 40 half-millisecond retention steps.
  harness.Drain(20 * sim::kMillisecond);
  double idle = primary->nic_load();
  EXPECT_GT(idle, 0.0);
  EXPECT_LE(idle, loaded * std::pow(0.75, 40));

  // The same read now goes to the NIC.
  harness.RunClient([&]() -> sim::Task<> {
    std::vector<uint8_t> big(data.size());
    Result<uint64_t> r = co_await fs->Pread(fd, big, 0);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 1u);
    CO_ASSERT_TRUE(std::equal(big.begin(), big.end(), data.begin()));
    co_await fs->Close(fd);
    co_await fs->Close(bulk_fd);
  });
  EXPECT_EQ(primary->stats().nic_reads, 1u);
}

TEST(LineFsTest, NicRpcReadPathFallsBackWhenNicDown) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.read_path = "nic_rpc";
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);
  std::vector<uint8_t> data = Pattern(128 << 10, 4);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/fb.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
    std::vector<uint8_t> out(data.size());
    CO_ASSERT_OK((co_await fs->Pread(*fd, out, 0)));
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 1u);

    // NIC service down mid-session: reads on the open fd must fall back to
    // the host route (no new NIC-routed reads) and still return the data.
    harness.cluster().SetServiceAlive(0, false);
    Result<uint64_t> r = co_await fs->Pread(*fd, out, 0);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, data.size());
    CO_ASSERT_EQ(fs->stats().reads_nic_routed, 1u);  // Unchanged: host route.
    co_await fs->Close(*fd);
  });
}

TEST(LineFsTest, HostCrashSwitchesToIsolatedModeAndBack) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);

  // Prime the system.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/avail.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(1 << 20, 5);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
  });

  // Crash replica 1's host. Its NICFS must detect the dead kernel worker and
  // switch to isolated operation.
  harness.cluster().hw_node(1).CrashHost();
  harness.Drain(sim::kSecond);
  EXPECT_TRUE(harness.cluster().nicfs(1)->isolated());

  // Writes (and fsyncs through the full chain) still succeed during the crash.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/avail.dat", fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(2 << 20, 6);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, data, 1 << 20)));
    Status st = co_await fs->Fsync(*fd);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  harness.Drain(3 * sim::kSecond);
  EXPECT_GT(harness.cluster().nicfs(1)->stats().isolated_publishes, 0u);

  // Host recovers; the (stateless) kernel worker resumes and NICFS leaves
  // isolated mode.
  harness.cluster().hw_node(1).RecoverHost();
  harness.Drain(sim::kSecond);
  EXPECT_FALSE(harness.cluster().nicfs(1)->isolated());

  // Replica 1's public area converged despite the crash window.
  fslib::PublicFs& replica = harness.cluster().dfs_node(1).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "avail.dat");
  ASSERT_TRUE(inum.ok());
  Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 3ULL << 20);
}

TEST(LineFsTest, NicFsFailureHealsChainAndRecoveryResyncs) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.heartbeat_interval = 200 * sim::kMillisecond;
  config.heartbeat_timeout = 300 * sim::kMillisecond;
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);

  // Kill node 2's NICFS (SmartNIC process failure).
  harness.cluster().SetServiceAlive(2, false);
  harness.Drain(2 * sim::kSecond);  // Cluster manager notices, epoch bumps.
  EXPECT_GT(harness.cluster().manager().epoch(), 1u);

  // Writes proceed over the healed 2-node chain.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/heal.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(1 << 20, 8);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    Status st = co_await fs->Fsync(*fd);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  harness.Drain(3 * sim::kSecond);

  // Node 2 missed the update.
  EXPECT_FALSE(
      harness.cluster().dfs_node(2).fs().LookupChild(fslib::kRootInode, "heal.dat").ok());

  // Recovery protocol: node 2's NICFS resyncs inodes updated since its epoch.
  bool recovered = false;
  harness.engine().Spawn([](Cluster* cluster, bool* done) -> sim::Task<> {
    Result<uint64_t> synced = co_await cluster->nicfs(2)->Recover(1);
    EXPECT_TRUE(synced.ok());
    EXPECT_GT(*synced, 0u);
    *done = true;
  }(&harness.cluster(), &recovered));
  sim::Time deadline = harness.engine().Now() + 60 * sim::kSecond;
  while (!recovered && harness.engine().Now() < deadline && harness.engine().RunOne()) {
  }
  ASSERT_TRUE(recovered);
  harness.cluster().SetServiceAlive(2, true);

  // Node 2 now has the file (data resynced from its peer).
  Result<fslib::InodeNum> inum =
      harness.cluster().dfs_node(2).fs().LookupChild(fslib::kRootInode, "heal.dat");
  ASSERT_TRUE(inum.ok());
  Result<fslib::FileAttr> attr = harness.cluster().dfs_node(2).fs().GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 1ULL << 20);
}

TEST(LineFsTest, LeaseConflictBetweenClients) {
  ClusterHarness harness(SmallConfig(DfsMode::kLineFS));
  LibFs* a = harness.cluster().CreateClient(0);
  LibFs* b = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await a->Open("/shared.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(4096, 1);
    CO_ASSERT_OK((co_await a->Write(*fd, data)));
    CO_ASSERT_OK((co_await a->Fsync(*fd)));
  });
  harness.Drain(3 * sim::kSecond);

  // Client B wants to write the same (now published) file: it must wait for
  // A's write lease to expire, then gets it.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await b->Open("/shared.dat", fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(4096, 2);
    Result<uint64_t> n = co_await b->Pwrite(*fd, data, 0);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
  });
  EXPECT_GT(harness.cluster().nicfs(0)->leases().grants(), 0u);
}

TEST(LineFsTest, CoalescingElidesTemporaryFiles) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    // Create + write + delete temp files within a chunk window, then fsync.
    for (int i = 0; i < 8; ++i) {
      std::string path = "/tmp" + std::to_string(i);
      Result<int> fd = co_await fs->Open(path, fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      std::vector<uint8_t> data(64 << 10, static_cast<uint8_t>(i));
      CO_ASSERT_OK((co_await fs->Write(*fd, data)));
      co_await fs->Close(*fd);
      CO_ASSERT_OK((co_await fs->Unlink(path)));
    }
    Result<int> keeper = co_await fs->Open("/keep", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(keeper);
    CO_ASSERT_OK((co_await fs->Fsync(*keeper)));
  });
  harness.Drain(3 * sim::kSecond);
  EXPECT_GT(harness.cluster().nicfs(0)->stats().coalesce_saved_bytes, 8u * (64 << 10) - 1);
  // The kept file exists everywhere; the temporaries exist nowhere.
  for (int node = 0; node < 3; ++node) {
    fslib::PublicFs& pub = harness.cluster().dfs_node(node).fs();
    EXPECT_TRUE(pub.LookupChild(fslib::kRootInode, "keep").ok()) << node;
    EXPECT_FALSE(pub.LookupChild(fslib::kRootInode, "tmp0").ok()) << node;
  }
}

TEST(LineFsTest, ElidedDataModeKeepsMetadataConsistent) {
  DfsConfig config = SmallConfig(DfsMode::kLineFS);
  config.materialize_data = false;  // Benchmark mode.
  ClusterHarness harness(config);
  LibFs* fs = harness.cluster().CreateClient(0);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/ghost.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> n = co_await fs->PwriteGen(*fd, 4 << 20, 0, 1);
    CO_ASSERT_OK(n);
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
    Result<fslib::FileAttr> stat = co_await fs->Stat("/ghost.dat");
    CO_ASSERT_OK(stat);
    EXPECT_EQ(stat->size, 4ULL << 20);
  });
  harness.Drain(5 * sim::kSecond);
  // Metadata (sizes, namespace) converges on replicas even without payloads.
  for (int node = 0; node < 3; ++node) {
    fslib::PublicFs& pub = harness.cluster().dfs_node(node).fs();
    Result<fslib::InodeNum> inum = pub.LookupChild(fslib::kRootInode, "ghost.dat");
    ASSERT_TRUE(inum.ok()) << node;
    Result<fslib::FileAttr> attr = pub.GetAttr(*inum);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 4ULL << 20) << node;
  }
}

TEST(LineFsTest, PipelineStageStatsPopulated) {
  ClusterHarness harness(SmallConfig(DfsMode::kLineFS));
  LibFs* fs = harness.cluster().CreateClient(0);
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/stats.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> data(2 << 20, 3);
    CO_ASSERT_OK((co_await fs->Write(*fd, data)));
    CO_ASSERT_OK((co_await fs->Fsync(*fd)));
  });
  harness.Drain(3 * sim::kSecond);
  NicFs::StatsSnapshot stats = harness.cluster().nicfs(0)->stats();
  EXPECT_GT(stats.chunks_fetched, 0u);
  EXPECT_GT(stats.stages.at("fetch").latency.count, 0u);
  EXPECT_GT(stats.stages.at("validate").latency.count, 0u);
  EXPECT_GT(stats.stages.at("publish").latency.count, 0u);
  EXPECT_GT(stats.stages.at("transfer").latency.count, 0u);
  EXPECT_EQ(stats.validation_failures, 0u);
}

}  // namespace
}  // namespace linefs::core
