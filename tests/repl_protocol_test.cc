// Replication-protocol API: registry and protocol-object units, config
// validation of the ReplConfig group, and a cluster-level conformance suite
// that runs the same replicate/agree/failure invariants against every
// registered protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tests/co_test_util.h"

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/obs/trace.h"
#include "src/repl/protocol.h"
#include "src/repl/registry.h"

namespace linefs::core {
namespace {

// --- Registry ----------------------------------------------------------------------

TEST(ReplRegistryTest, BuiltinsAreRegistered) {
  repl::ProtocolRegistry& reg = repl::Protocols();
  EXPECT_TRUE(reg.Contains("chain"));
  EXPECT_TRUE(reg.Contains("quorum"));
  EXPECT_FALSE(reg.Contains("paxos"));
  EXPECT_EQ(reg.Create("paxos"), nullptr);

  std::vector<std::string> names = reg.Names();
  for (const char* expected : {"chain", "quorum"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

TEST(ReplRegistryTest, PrivateRegistryAndOverride) {
  repl::ProtocolRegistry reg;
  repl::RegisterBuiltinProtocols(reg);
  EXPECT_TRUE(reg.Contains("chain"));

  // Later registrations under the same name win (test protocols can shadow).
  bool used = false;
  reg.Register("chain", [&used](const repl::ProtocolParams&) {
    used = true;
    repl::ProtocolRegistry fresh;
    repl::RegisterBuiltinProtocols(fresh);
    return fresh.Create("chain");
  });
  auto protocol = reg.Create("chain");
  ASSERT_NE(protocol, nullptr);
  EXPECT_TRUE(used);
}

// --- Protocol decision objects -----------------------------------------------------

repl::PeerView ViewOf(int self, int num_nodes, std::set<int> dead = {}) {
  repl::PeerView view;
  view.self = self;
  view.num_nodes = num_nodes;
  view.alive = [dead](int node) { return dead.count(node) == 0; };
  return view;
}

TEST(ReplProtocolUnitTest, ChainOrderRotatesAndSkipsDeadPeers) {
  std::vector<int> all = repl::ChainOrder(ViewOf(2, 4));
  EXPECT_EQ(all, (std::vector<int>{2, 3, 0, 1}));

  std::vector<int> healed = repl::ChainOrder(ViewOf(2, 4, /*dead=*/{3}));
  EXPECT_EQ(healed, (std::vector<int>{2, 0, 1}));
}

TEST(ReplProtocolUnitTest, ChainDispatchesOneForwardingHop) {
  auto chain = repl::Protocols().Create("chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->info().name, "chain");
  EXPECT_TRUE(chain->info().forwards);
  EXPECT_FALSE(chain->info().quorum);

  // Three live nodes: a single non-terminal send to the successor, which
  // forwards down the chain.
  std::vector<repl::Target> targets = chain->OnChunkReady(ViewOf(0, 3));
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].node, 1);
  EXPECT_EQ(targets[0].hop, 1);
  EXPECT_FALSE(targets[0].terminal);

  // Two-node chain: the successor is the last hop.
  targets = chain->OnChunkReady(ViewOf(0, 2));
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_TRUE(targets[0].terminal);

  // No live replicas: nothing on the wire, chunk is trivially committed.
  EXPECT_TRUE(chain->OnChunkReady(ViewOf(0, 3, /*dead=*/{1, 2})).empty());
}

TEST(ReplProtocolUnitTest, ChainCommitNeedsEveryLivePeer) {
  auto chain = repl::Protocols().Create("chain");
  repl::PeerView view = ViewOf(0, 3);
  EXPECT_FALSE(chain->CommitPoint(view, {}));
  EXPECT_FALSE(chain->CommitPoint(view, {1}));
  EXPECT_TRUE(chain->CommitPoint(view, {1, 2}));

  // A declared-dead replica stops gating commit and retire.
  repl::PeerView degraded = ViewOf(0, 3, /*dead=*/{2});
  EXPECT_TRUE(chain->CommitPoint(degraded, {1}));
  EXPECT_TRUE(chain->RetirePoint(degraded, {1}));
}

TEST(ReplProtocolUnitTest, QuorumFansOutAndCommitsAtMajority) {
  auto quorum = repl::Protocols().Create("quorum");
  ASSERT_NE(quorum, nullptr);
  EXPECT_TRUE(quorum->info().quorum);
  EXPECT_FALSE(quorum->info().forwards);

  // Fan-out: every live peer gets a terminal point-to-point delivery.
  std::vector<repl::Target> targets = quorum->OnChunkReady(ViewOf(0, 3));
  ASSERT_EQ(targets.size(), 2u);
  std::set<int> nodes;
  for (const repl::Target& t : targets) {
    nodes.insert(t.node);
    EXPECT_TRUE(t.terminal);
    EXPECT_EQ(t.hop, 1);
  }
  EXPECT_EQ(nodes, (std::set<int>{1, 2}));

  // Majority of 3 is 2; the origin's local copy is the first vote.
  repl::PeerView view = ViewOf(0, 3);
  EXPECT_FALSE(quorum->CommitPoint(view, {}));
  EXPECT_TRUE(quorum->CommitPoint(view, {1}));
  // Retire still waits for the laggard: its client-log range backs
  // retransmits until every live replica holds the chunk.
  EXPECT_FALSE(quorum->RetirePoint(view, {1}));
  EXPECT_TRUE(quorum->RetirePoint(view, {1, 2}));

  // An explicit quorum_size overrides the majority rule.
  auto strict = repl::Protocols().Create("quorum", {/*quorum_size=*/3});
  EXPECT_FALSE(strict->CommitPoint(view, {1}));
  EXPECT_TRUE(strict->CommitPoint(view, {1, 2}));
}

TEST(ReplProtocolUnitTest, QuorumDegradesToAllLiveAcked) {
  auto quorum = repl::Protocols().Create("quorum");
  // 5 nodes, majority 3, but only one peer is still alive: quorum can never
  // be reached, so commit falls back to all-live-acked (same availability as
  // chain under the same faults).
  repl::PeerView view = ViewOf(0, 5, /*dead=*/{2, 3, 4});
  EXPECT_FALSE(quorum->CommitPoint(view, {}));
  EXPECT_TRUE(quorum->CommitPoint(view, {1}));

  // Acks from since-failed replicas keep counting: quorum is never un-reached.
  repl::PeerView late_death = ViewOf(0, 5, /*dead=*/{1, 4});
  EXPECT_TRUE(quorum->CommitPoint(late_death, {1, 2}));
}

// --- Config validation of the ReplConfig group -------------------------------------

DfsConfig ValidConfig() {
  DfsConfig config;
  config.mode = DfsMode::kLineFS;
  config.num_nodes = 3;
  return config;
}

TEST(ReplConfigValidateTest, UnknownProtocolRejected) {
  // "chain_sync" is not a protocol (the lock-step schedule is chain at
  // repl.transfer_window = 1); a config naming it must fail loudly.
  for (const char* name : {"raft", "chain_sync"}) {
    DfsConfig config = ValidConfig();
    config.repl.protocol = name;
    Status st = config.Validate();
    EXPECT_FALSE(st.ok()) << name;
    EXPECT_NE(st.ToString().find("unknown protocol"), std::string::npos) << st.ToString();
  }
}

TEST(ReplConfigValidateTest, QuorumSizeRejectedForNonQuorumProtocols) {
  DfsConfig config = ValidConfig();
  config.repl.protocol = "chain";
  config.repl.quorum_size = 2;
  EXPECT_FALSE(config.Validate().ok());

  config.repl.protocol = "quorum";
  EXPECT_TRUE(config.Validate().ok());

  config.repl.quorum_size = 4;  // > num_nodes.
  EXPECT_FALSE(config.Validate().ok());
  config.repl.quorum_size = -1;
  EXPECT_FALSE(config.Validate().ok());
}

// --- Cluster-level conformance: every registered protocol ---------------------------

DfsConfig ConformanceConfig(const std::string& protocol) {
  DfsConfig config;
  config.mode = DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 32ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  config.repl.protocol = protocol;
  return config;
}

class ReplConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Start(const DfsConfig& config) {
    cluster_ = std::make_unique<Cluster>(&engine_, config);
    cluster_->trace().EnableRing();  // ExpectInOrderPublishes reads raw spans.
    Status st = cluster_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  ~ReplConformanceTest() override {
    if (cluster_ != nullptr) {
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
    ASSERT_TRUE(done) << "client driver did not complete";
  }

  void ExpectReplicaHasFile(int node, const std::string& name, uint64_t size) {
    fslib::PublicFs& replica = cluster_->dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, name);
    ASSERT_TRUE(inum.ok()) << "replica " << node << ": " << inum.status().ToString();
    Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
    ASSERT_TRUE(attr.ok()) << "replica " << node;
    EXPECT_EQ(attr->size, size) << "replica " << node;
  }

  void ExpectInOrderPublishes(int node) {
    std::vector<obs::TraceEvent> publishes;
    cluster_->trace().ForEach([&](const obs::TraceEvent& ev) {
      if (ev.component == "nicfs." + std::to_string(node) && ev.stage == "publish") {
        publishes.push_back(ev);
      }
    });
    std::sort(publishes.begin(), publishes.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.begin != b.begin ? a.begin < b.begin : a.chunk_no < b.chunk_no;
              });
    ASSERT_FALSE(publishes.empty()) << "replica " << node;
    for (size_t i = 1; i < publishes.size(); ++i) {
      EXPECT_EQ(publishes[i].chunk_no, publishes[i - 1].chunk_no + 1)
          << "replica " << node << " applied out of order at index " << i;
    }
  }

  sim::Engine engine_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_P(ReplConformanceTest, ReplicatesAndReplicasAgree) {
  Start(ConformanceConfig(GetParam()));
  LibFs* fs = cluster_->CreateClient(0);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/conf.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 8ULL << 20, 0, 7);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  // Every replica holds the whole file and applied it in client-log order.
  for (int node = 1; node <= 2; ++node) {
    ExpectReplicaHasFile(node, "conf.dat", 8ULL << 20);
    ExpectInOrderPublishes(node);
  }
  EXPECT_GE(cluster_->nicfs(0)->replicated_upto(0), 8ULL << 20);
}

TEST_P(ReplConformanceTest, FsyncCompletesWithDeadReplica) {
  Start(ConformanceConfig(GetParam()));
  LibFs* fs = cluster_->CreateClient(0);

  // Node 2's service is declared dead before any data flows: dispatch must
  // skip it, and commit must not wait for it.
  cluster_->SetServiceAlive(2, false);
  Run([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/dead.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 4ULL << 20, 0, 3);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  ExpectReplicaHasFile(1, "dead.dat", 4ULL << 20);
  EXPECT_FALSE(
      cluster_->dfs_node(2).fs().LookupChild(fslib::kRootInode, "dead.dat").ok());
}

TEST_P(ReplConformanceTest, SurvivesDroppedSendsToFirstReplica) {
  Start(ConformanceConfig(GetParam()));
  LibFs* fs = cluster_->CreateClient(0);

  // Eat a couple of the origin's replication sends to node 1; the retransmit
  // sweeper must heal the hole for every protocol without reordering applies.
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
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 8ULL << 20, 0, 5);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  cluster_->rpc().ClearDropFilter();
  engine_.RunUntil(engine_.Now() + 5 * sim::kSecond);

  EXPECT_GT(seen, 0);
  for (int node = 1; node <= 2; ++node) {
    ExpectReplicaHasFile(node, "drop.dat", 8ULL << 20);
    ExpectInOrderPublishes(node);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReplConformanceTest,
                         ::testing::ValuesIn(repl::Protocols().Names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- Quorum-specific behavior: commit does not wait for the laggard ----------------

TEST(ReplQuorumClusterTest, CommitsAtMajorityDespiteSilencedReplica) {
  sim::Engine engine;
  DfsConfig config = ConformanceConfig("quorum");
  Cluster cluster(&engine, config);
  ASSERT_TRUE(cluster.Start().ok());
  LibFs* fs = cluster.CreateClient(0);

  // Silence the fan-out leg to node 2 entirely: with chain this would stall
  // every fsync behind the sweeper; with quorum the node-1 ack plus the
  // origin's copy is a majority, so fsync completes while node 2 lags.
  cluster.rpc().SetDropFilter([](int src, int dst, rdma::Channel channel) {
    return src == 0 && dst == 2 && channel == rdma::Channel::kHighTput;
  });

  sim::Time fsync_done = 0;
  bool done = false;
  engine.Spawn([](LibFs* fs, sim::Engine* engine, sim::Time* fsync_done,
                  bool* done) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/lag.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    Result<uint64_t> w = co_await fs->PwriteGen(*fd, 6ULL << 20, 0, 9);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    *fsync_done = engine->Now();
    *done = true;
  }(fs, &engine, &fsync_done, &done));
  sim::Time deadline = engine.Now() + 600 * sim::kSecond;
  while (!done && engine.Now() < deadline && engine.RunOne()) {
  }
  ASSERT_TRUE(done) << "quorum fsync stalled behind the silenced replica";

  // At fsync completion the laggard had nothing; commit ran ahead of retire.
  EXPECT_GE(cluster.nicfs(0)->replicated_upto(0), 6ULL << 20);
  EXPECT_FALSE(
      cluster.dfs_node(2).fs().LookupChild(fslib::kRootInode, "lag.dat").ok());

  // Heal the link: the per-peer retransmit sweeper refills exactly node 2
  // from the (still unreclaimed) client log, and the replicas converge.
  cluster.rpc().ClearDropFilter();
  engine.RunUntil(engine.Now() + 10 * sim::kSecond);
  for (int node = 1; node <= 2; ++node) {
    fslib::PublicFs& replica = cluster.dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "lag.dat");
    ASSERT_TRUE(inum.ok()) << "replica " << node << " did not converge";
    Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 6ULL << 20) << "replica " << node;
  }
  NicFs::StatsSnapshot stats = cluster.nicfs(0)->stats();
  EXPECT_GT(stats.repl_retransmits, 0u);

  cluster.Shutdown();
  engine.Run();
}

}  // namespace
}  // namespace linefs::core
