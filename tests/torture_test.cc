// Crash/partition torture harness (ISSUE: fault-injection subsystem).
//
// Each seeded case runs real workloads (Varmail + MiniKv, both clients on
// node 0) on a 3-node LineFS cluster while a RandomPlan(seed) fault schedule
// crashes hosts, power-fails PM, stalls SmartNICs, degrades links, drops RPCs
// and partitions the network. After the last fault heals, the harness drains
// the pipelines, drives the recovery protocol on every replica, and asserts
// four invariants:
//
//   1. Prefix crash consistency: a fresh RecoverScan of every client log image
//      on every node yields a cleanly parseable prefix (torn tails are
//      discarded, never misparsed).
//   2. Replica-chain agreement: the published namespace trees (names, types,
//      sizes, file contents) are identical on every node.
//   3. Allocator rebuild: remounting each node's public area rebuilds a block
//      allocator consistent with the extent trees (every block the rebuild
//      considers allocated is allocated in the live instance).
//   4. Lease single-writer safety: at no sampled instant do two clients hold
//      an unexpired write lease on the same inode.
//
// A separate determinism test runs one seed twice and requires byte-identical
// injector event logs (and identical drop/op counts): fault schedules are
// replayable.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/clustermgr.h"
#include "src/core/config.h"
#include "src/core/lease.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/repl/registry.h"
#include "src/sim/engine.h"
#include "src/workloads/filebench.h"
#include "src/workloads/minikv.h"

namespace linefs::fault {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// Replication protocols the torture suite sweeps. CI pins one per job via
// LINEFS_REPL_PROTOCOL; a bare local run covers every registered protocol.
std::vector<std::string> TortureProtocols() {
  if (const char* pinned = std::getenv("LINEFS_REPL_PROTOCOL")) {
    return {pinned};
  }
  return repl::Protocols().Names();
}

core::DfsConfig TortureConfig(const std::string& protocol) {
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.repl.protocol = protocol;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 8ULL << 20;
  // Varmail churns through inodes (LibFs inum ranges are bump-allocated, so
  // unlinked files do not recycle their slots): budget generously.
  config.inode_count = 1 << 20;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  // Fast failure detection: fault windows are short, the cluster manager must
  // notice deaths (and readmissions) inside them.
  config.heartbeat_interval = 200 * kMillisecond;
  config.heartbeat_timeout = 300 * kMillisecond;
  return config;
}

class TortureHarness {
 public:
  explicit TortureHarness(const core::DfsConfig& config) {
    cluster_ = std::make_unique<core::Cluster>(&engine_, config);
    Status st = cluster_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~TortureHarness() {
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
    sim::Time deadline = engine_.Now() + 600 * kSecond;
    while (!done && engine_.Now() < deadline && engine_.RunOne()) {
    }
    ASSERT_TRUE(done) << "torture driver did not complete (deadlock or starvation)";
  }

  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  sim::Engine& engine() { return engine_; }
  core::Cluster& cluster() { return *cluster_; }

 private:
  sim::Engine engine_;
  std::unique_ptr<core::Cluster> cluster_;
};

// --- Invariant 4: lease single-writer auditor --------------------------------------

struct LeaseAudit {
  uint64_t samples = 0;
  uint64_t violations = 0;
  bool stop = false;
};

sim::Task<> AuditLeases(core::Cluster* cluster, LeaseAudit* audit) {
  sim::Engine* engine = cluster->engine();
  while (!audit->stop) {
    std::map<fslib::InodeNum, std::set<uint32_t>> writers;
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      core::NicFs* nicfs = cluster->nicfs(n);
      if (nicfs == nullptr) {
        continue;
      }
      for (const auto& [inum, writer] : nicfs->leases().ActiveWriters(engine->Now())) {
        writers[inum].insert(writer);
      }
    }
    for (const auto& [inum, holders] : writers) {
      if (holders.size() > 1) {
        ++audit->violations;
        ADD_FAILURE() << "lease violation: inode " << inum << " has " << holders.size()
                      << " unexpired writers at t=" << engine->Now();
      }
    }
    ++audit->samples;
    co_await engine->SleepFor(50 * kMillisecond);
  }
}

// --- Workloads ---------------------------------------------------------------------

// A paced MiniKv fill: batches of Puts separated by sleeps so the store stays
// active across the whole fault window (a flat-out fill would finish before
// the first fault fires). Put failures are tolerated — progress, not
// completion, is what the invariants need.
sim::Task<> KvWorkload(core::LibFs* fs, sim::Engine* engine, uint64_t* ops, bool* done) {
  workloads::MiniKv kv(fs, workloads::MiniKv::Options{});
  Status st = co_await kv.Open();
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (st.ok()) {
    std::string value(4096, 'v');
    for (int i = 0; i < 320; ++i) {
      char key[24];
      std::snprintf(key, sizeof(key), "%016d", i);
      Status put = co_await kv.Put(key, value);
      if (put.ok()) {
        ++*ops;
      }
      if (i % 8 == 0) {
        co_await engine->SleepFor(100 * kMillisecond);
      }
    }
    co_await kv.Close();
  }
  *done = true;
}

// --- Invariant 1: prefix crash consistency of every PM log -------------------------

void CheckLogPrefixes(core::Cluster& cluster, int num_clients) {
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    const fslib::Layout& layout = cluster.dfs_node(node).layout();
    for (int client = 0; client < num_clients; ++client) {
      fslib::LogArea fresh(&cluster.hw_node(node).pm(), layout.LogOffset(client),
                           layout.log_size, static_cast<uint32_t>(client),
                           /*materialize=*/true);
      Result<uint64_t> scanned = fresh.RecoverScan();
      ASSERT_TRUE(scanned.ok()) << "node " << node << " client " << client << ": "
                                << scanned.status().ToString();
      Result<std::vector<fslib::ParsedEntry>> entries =
          fresh.ParseRange(fresh.head(), fresh.tail());
      EXPECT_TRUE(entries.ok()) << "node " << node << " client " << client
                                << ": recovered window does not parse: "
                                << entries.status().ToString();
    }
  }
}

// --- Invariant 2: replica-chain agreement on published state -----------------------

void CompareTrees(fslib::PublicFs& ref, fslib::PublicFs& other, fslib::InodeNum ref_dir,
                  fslib::InodeNum other_dir, const std::string& path, int node) {
  auto ref_list = ref.dirs().List(ref_dir);
  auto other_list = other.dirs().List(other_dir);
  ASSERT_TRUE(ref_list.ok()) << path;
  ASSERT_TRUE(other_list.ok()) << "node " << node << " " << path;
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(ref_list->begin(), ref_list->end(), by_name);
  std::sort(other_list->begin(), other_list->end(), by_name);

  std::vector<std::string> ref_names, other_names;
  for (const auto& [name, inum] : *ref_list) ref_names.push_back(name);
  for (const auto& [name, inum] : *other_list) other_names.push_back(name);
  ASSERT_EQ(ref_names, other_names) << "node " << node << ": directory " << path << " differs";

  for (size_t i = 0; i < ref_list->size(); ++i) {
    const std::string child_path = path + "/" + (*ref_list)[i].first;
    Result<fslib::FileAttr> ref_attr = ref.GetAttr((*ref_list)[i].second);
    Result<fslib::FileAttr> other_attr = other.GetAttr((*other_list)[i].second);
    ASSERT_TRUE(ref_attr.ok()) << child_path;
    ASSERT_TRUE(other_attr.ok()) << "node " << node << " " << child_path;
    EXPECT_EQ(ref_attr->type, other_attr->type) << "node " << node << " " << child_path;
    if (ref_attr->type == fslib::FileType::kDirectory) {
      CompareTrees(ref, other, (*ref_list)[i].second, (*other_list)[i].second, child_path,
                   node);
      continue;
    }
    ASSERT_EQ(ref_attr->size, other_attr->size) << "node " << node << " " << child_path;
    std::vector<uint8_t> ref_data(ref_attr->size), other_data(other_attr->size);
    Result<uint64_t> r0 = ref.ReadData((*ref_list)[i].second, 0, ref_data);
    Result<uint64_t> r1 = other.ReadData((*other_list)[i].second, 0, other_data);
    ASSERT_TRUE(r0.ok()) << child_path;
    ASSERT_TRUE(r1.ok()) << "node " << node << " " << child_path;
    EXPECT_TRUE(ref_data == other_data)
        << "node " << node << ": content of " << child_path << " diverged";
  }
}

// --- Invariant 3: allocator rebuild matches extent trees ---------------------------

void CheckAllocatorRebuild(core::Cluster& cluster) {
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    fslib::PublicFs& live = cluster.dfs_node(node).fs();
    fslib::PublicFs remounted(&cluster.hw_node(node).pm(),
                              cluster.dfs_node(node).layout());
    Status st = remounted.Mount();
    ASSERT_TRUE(st.ok()) << "node " << node << ": remount failed: " << st.ToString();
    // Every block the rebuild derives from the persisted extent trees must be
    // allocated in the live allocator (the live side may additionally hold
    // blocks for not-yet-published state).
    const fslib::Layout& layout = cluster.dfs_node(node).layout();
    uint64_t mismatched = 0;
    for (uint64_t b = layout.data_first_block;
         b < layout.data_first_block + layout.data_block_count; ++b) {
      if (remounted.allocator().IsAllocated(b) && !live.allocator().IsAllocated(b)) {
        ++mismatched;
      }
    }
    EXPECT_EQ(mismatched, 0u) << "node " << node
                              << ": remounted allocator claims blocks the live allocator "
                                 "considers free";
    EXPECT_GE(remounted.allocator().free_blocks(), live.allocator().free_blocks())
        << "node " << node;
    // The live node's DRAM extent mirrors agree with the chains the remount
    // decoded from PM.
    uint64_t diverged = 0;
    for (fslib::InodeNum inum = 1; inum < layout.inode_count; ++inum) {
      Result<fslib::Inode> inode = live.inodes().Get(inum);
      if (inode.ok() && live.extents().Load(*inode) != remounted.extents().Load(*inode)) {
        ++diverged;
      }
    }
    EXPECT_EQ(diverged, 0u) << "node " << node << ": extent mirrors diverge from PM";
  }
}

// --- The torture run ---------------------------------------------------------------

struct TortureResult {
  std::string event_log;
  uint64_t messages_dropped = 0;
  uint64_t total_ops = 0;
};

class TortureTest : public ::testing::TestWithParam<std::tuple<uint64_t, std::string>> {};

TEST_P(TortureTest, SurvivesSeededFaultSchedule) {
  const uint64_t seed = std::get<0>(GetParam());
  const std::string& protocol = std::get<1>(GetParam());
  SCOPED_TRACE("replication protocol: " + protocol);
  TortureHarness harness(TortureConfig(protocol));
  core::Cluster& cluster = harness.cluster();
  sim::Engine& engine = harness.engine();

  ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 800 * kMillisecond;
  sched.last_heal = 5 * kSecond;
  sched.max_extra_faults = 2;
  FaultPlan plan = RandomPlan(seed, sched);
  ASSERT_TRUE(plan.Validate(3).ok()) << plan.ToSpec();
  SCOPED_TRACE("fault plan:\n" + plan.ToSpec());

  Injector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  LeaseAudit audit;
  engine.Spawn(AuditLeases(&cluster, &audit));

  // Two clients, both attached to node 0 (the schedule only takes replicas
  // down, so the drivers always have a live home NICFS to talk to).
  core::LibFs* mail_fs = cluster.CreateClient(0);
  core::LibFs* kv_fs = cluster.CreateClient(0);

  uint64_t kv_ops = 0;
  uint64_t mail_ops = 0;
  harness.RunClient([&]() -> sim::Task<> {
    bool kv_done = false;
    engine.Spawn(KvWorkload(kv_fs, &engine, &kv_ops, &kv_done));
    workloads::Filebench bench(mail_fs, workloads::Filebench::VarmailOptions(/*nfiles=*/48));
    co_await bench.Preallocate();
    co_await bench.Run(5500 * kMillisecond);
    mail_ops = bench.total_ops();
    while (!kv_done) {
      co_await engine.SleepFor(50 * kMillisecond);
    }
  });
  EXPECT_GT(mail_ops + kv_ops, 0u) << "no workload progress under faults";

  // All faults healed by `last_heal`; give the retransmit sweepers time to
  // fill replication holes on the still-admitted chain members.
  harness.Drain(2 * kSecond);
  EXPECT_TRUE(injector.done());

  // Barrier: one small fsynced write per client forces the whole replication
  // backlog through the healed chain (nodes declared dead during the run are
  // excluded until the recovery protocol below readmits them).
  harness.RunClient([&]() -> sim::Task<> {
    std::vector<uint8_t> marker(64 << 10, 0xAB);
    for (core::LibFs* fs : {mail_fs, kv_fs}) {
      Result<int> fd = co_await fs->Open("/torture_barrier.dat",
                                         fslib::kOpenCreate | fslib::kOpenWrite);
      EXPECT_TRUE(fd.ok()) << fd.status().ToString();
      if (fd.ok()) {
        Result<uint64_t> wrote = co_await fs->Pwrite(*fd, marker, 0);
        EXPECT_TRUE(wrote.ok()) << wrote.status().ToString();
        Status synced = co_await fs->Fsync(*fd);
        EXPECT_TRUE(synced.ok()) << synced.ToString();
        co_await fs->Close(*fd);
      }
    }
  });
  harness.Drain(2 * kSecond);  // Publication digests the replicated logs.

  // Drive the recovery protocol on every replica (harmless where the node
  // never died): resync inodes/extents from live peers, fast-forward the
  // replica pipes past anything consumed while it was gone, then rejoin the
  // cluster — the heartbeat loop formally readmits the node (§3.6).
  harness.RunClient([&]() -> sim::Task<> {
    for (int n = 1; n < 3; ++n) {
      Result<uint64_t> synced = co_await cluster.nicfs(n)->Recover(0);
      EXPECT_TRUE(synced.ok()) << "node " << n << ": " << synced.status().ToString();
      cluster.SetServiceAlive(n, true);
    }
  });
  harness.Drain(kSecond);
  for (int n = 0; n < 3; ++n) {
    EXPECT_TRUE(cluster.service_alive(n)) << "node " << n << " not readmitted";
  }

  audit.stop = true;
  harness.Drain(100 * kMillisecond);

  // Every replication payload stashed for a send was taken by its receiver or
  // withdrawn by a sender whose post failed.
  EXPECT_EQ(cluster.pending_wire(), 0u);

  // Invariant 1: prefix crash consistency of every client log on every node.
  CheckLogPrefixes(cluster, /*num_clients=*/2);

  // Invariant 2: every replica's published tree agrees with the origin's.
  for (int node = 1; node < 3; ++node) {
    CompareTrees(cluster.dfs_node(0).fs(), cluster.dfs_node(node).fs(), fslib::kRootInode,
                 fslib::kRootInode, "", node);
  }

  // Invariant 3: allocator rebuild from persisted extent trees.
  CheckAllocatorRebuild(cluster);

  // Invariant 4: lease single-writer safety held at every sample.
  EXPECT_GT(audit.samples, 0u);
  EXPECT_EQ(audit.violations, 0u);

  // The fault log is non-empty and every edge was applied.
  EXPECT_GE(injector.event_log().size(), 2u);
  EXPECT_EQ(injector.edges_applied(), 2 * plan.size());
}

// Eight distinct seeded schedules; seeds 1..8 cover all five guaranteed
// first-window fault classes (seed % 5) plus random extras. Every schedule
// runs once per swept replication protocol.
INSTANTIATE_TEST_SUITE_P(
    Seeds, TortureTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9),
                       ::testing::ValuesIn(TortureProtocols())),
    [](const ::testing::TestParamInfo<TortureTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + std::get<1>(info.param);
    });

// --- Determinism: same seed, byte-identical fault logs -----------------------------

TortureResult ShortTortureRun(uint64_t seed) {
  TortureResult result;
  TortureHarness harness(TortureConfig(TortureProtocols().front()));
  core::Cluster& cluster = harness.cluster();

  ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 500 * kMillisecond;
  sched.last_heal = 2500 * kMillisecond;
  sched.max_extra_faults = 2;
  Injector injector(&cluster, RandomPlan(seed, sched));
  EXPECT_TRUE(injector.Arm().ok());

  core::LibFs* fs = cluster.CreateClient(0);
  harness.RunClient([&]() -> sim::Task<> {
    workloads::Filebench bench(fs, workloads::Filebench::VarmailOptions(/*nfiles=*/24));
    co_await bench.Preallocate();
    co_await bench.Run(3 * kSecond);
    result.total_ops = bench.total_ops();
  });
  harness.Drain(kSecond);
  EXPECT_TRUE(injector.done());
  result.event_log = injector.EventLogText();
  result.messages_dropped = injector.messages_dropped();
  return result;
}

TEST(TortureDeterminismTest, SameSeedByteIdenticalRuns) {
  // Seed 2 guarantees a partition first window, so the drop filter (and its
  // seeded per-window RNG) is definitely on the critical path.
  TortureResult a = ShortTortureRun(2);
  TortureResult b = ShortTortureRun(2);
  EXPECT_FALSE(a.event_log.empty());
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

// --- Sharded-plane torture: cross-shard renames under faults -----------------------
//
// seed x shard-count matrix. A rename ring shuttles files between directories
// that the shard map scatters across arbiters, so a steady fraction of the
// moves pays cross-shard 2PC, while a seeded fault schedule crashes replicas,
// stalls NICs and drops messages. After heal + recovery, the published
// namespace must be dirent-clean:
//
//   - no dangling dirents: every listed child resolves via GetAttr;
//   - no duplicated dirents: names unique within a directory, and every
//     shuttled file appears exactly once across the whole tree (renames are
//     moves, never copies — a crashed transaction must not leave both the
//     source and destination entries);
//   - no leaked intent locks at any transaction service.

// Walks `dir` depth-first; records every file name into `names` (asserting
// per-directory uniqueness) and every child into `inode_refs`.
void AuditDirents(fslib::PublicFs& fs, fslib::InodeNum dir, const std::string& path,
                  std::map<std::string, int>* names,
                  std::map<fslib::InodeNum, int>* inode_refs) {
  auto list = fs.dirs().List(dir);
  ASSERT_TRUE(list.ok()) << path;
  std::set<std::string> local;
  for (const auto& [name, inum] : *list) {
    EXPECT_TRUE(local.insert(name).second)
        << "duplicate dirent \"" << name << "\" in " << path;
    Result<fslib::FileAttr> attr = fs.GetAttr(inum);
    ASSERT_TRUE(attr.ok()) << "dangling dirent " << path << "/" << name;
    ++(*inode_refs)[inum];
    if (attr->type == fslib::FileType::kDirectory) {
      AuditDirents(fs, inum, path + "/" + name, names, inode_refs);
    } else {
      ++(*names)[name];
    }
  }
}

class ShardTortureTest : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ShardTortureTest, NoDanglingOrDuplicatedDirents) {
  const uint64_t seed = std::get<0>(GetParam());
  const int num_shards = std::get<1>(GetParam());
  core::DfsConfig config = TortureConfig(TortureProtocols().front());
  config.num_shards = num_shards;
  config.shard_placement = "hash";
  // Short in-doubt horizon: crashed transactions must resolve inside the run.
  config.txn_in_doubt_timeout = 200 * kMillisecond;
  config.txn_sweep_interval = 50 * kMillisecond;
  TortureHarness harness(config);
  core::Cluster& cluster = harness.cluster();

  ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 600 * kMillisecond;
  sched.last_heal = 3 * kSecond;
  sched.max_extra_faults = 1;
  FaultPlan plan = RandomPlan(seed, sched);
  ASSERT_TRUE(plan.Validate(3).ok()) << plan.ToSpec();
  SCOPED_TRACE("fault plan:\n" + plan.ToSpec());
  Injector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  constexpr int kRingDirs = 6;
  constexpr int kRingFiles = 24;
  core::LibFs* fs = cluster.CreateClient(0);
  harness.RunClient([&]() -> sim::Task<> {
    for (int d = 0; d < kRingDirs; ++d) {
      CO_ASSERT_OK(co_await fs->Mkdir("/ring" + std::to_string(d)));
    }
    std::vector<int> at(kRingFiles, 0);  // Current ring position per file.
    for (int f = 0; f < kRingFiles; ++f) {
      Result<int> fd = co_await fs->Open("/ring0/f" + std::to_string(f),
                                         fslib::kOpenCreate | fslib::kOpenWrite);
      CO_ASSERT_OK(fd);
      co_await fs->Close(*fd);
    }
    // Shuttle every file around the ring for the fault window. Failures are
    // tolerated (an aborted cross-shard transaction leaves the file where it
    // was); only successful renames advance the tracked position.
    sim::Time stop = fs->engine()->Now() + 3500 * kMillisecond;
    while (fs->engine()->Now() < stop) {
      for (int f = 0; f < kRingFiles; ++f) {
        int from = at[f];
        int to = (from + 1) % kRingDirs;
        std::string name = "/f" + std::to_string(f);
        Status moved = co_await fs->Rename("/ring" + std::to_string(from) + name,
                                           "/ring" + std::to_string(to) + name);
        if (moved.ok()) {
          at[f] = to;
        }
      }
      co_await fs->engine()->SleepFor(20 * kMillisecond);
    }
  });
  harness.Drain(2 * kSecond);
  EXPECT_TRUE(injector.done());

  // Readmit/recover the replicas FIRST: unlike the unsharded torture run, a
  // dead node here takes its shard arbiters down with it, so any op touching
  // that slice of the namespace (including the barrier below) is unavailable
  // until the node rejoins.
  harness.RunClient([&]() -> sim::Task<> {
    for (int n = 1; n < 3; ++n) {
      Result<uint64_t> synced = co_await cluster.nicfs(n)->Recover(0);
      EXPECT_TRUE(synced.ok()) << "node " << n << ": " << synced.status().ToString();
      cluster.SetServiceAlive(n, true);
    }
  });
  harness.Drain(kSecond);

  // Barrier: an fsynced write pushes the whole rename backlog through
  // publication on every (now live) replica.
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/barrier.dat",
                                       fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    std::vector<uint8_t> marker(4096, 0xCD);
    CO_ASSERT_OK(co_await fs->Pwrite(*fd, marker, 0));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    co_await fs->Close(*fd);
  });
  harness.Drain(2 * kSecond);

  // Dirent audit on the origin's published tree.
  std::map<std::string, int> file_names;
  std::map<fslib::InodeNum, int> inode_refs;
  AuditDirents(cluster.dfs_node(0).fs(), fslib::kRootInode, "", &file_names, &inode_refs);
  for (int f = 0; f < kRingFiles; ++f) {
    EXPECT_EQ(file_names["f" + std::to_string(f)], 1)
        << "file f" << f << " must appear exactly once across the rename ring";
  }
  for (const auto& [inum, refs] : inode_refs) {
    EXPECT_EQ(refs, 1) << "inode " << inum << " reachable through " << refs << " dirents";
  }

  // Replicas agree with the origin, and no transaction holds intent locks.
  for (int node = 1; node < 3; ++node) {
    CompareTrees(cluster.dfs_node(0).fs(), cluster.dfs_node(node).fs(), fslib::kRootInode,
                 fslib::kRootInode, "", node);
  }
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.txn(n)->intent_locks_held(), 0u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardTortureTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 4), ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<ShardTortureTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace linefs::fault
