// The pipeline-stage API (src/pipeline): the stage factory and config-chain
// validation, per-chunk stage order through the generic workers, wire
// round-trips of the transform stages (checksum seal, XOR scrambling), placer
// policy and worker migration, and a seeded fault run with the full chain
// armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tests/co_test_util.h"

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/obs/trace.h"
#include "src/pipeline/placer.h"
#include "src/pipeline/stage.h"
#include "src/sim/engine.h"
#include "src/workloads/minikv.h"

namespace linefs::pipeline {
namespace {

using core::DfsConfig;
using core::DfsMode;
using core::LibFs;

DfsConfig TestConfig() {
  DfsConfig config;
  config.mode = DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 512ULL << 20;
  config.log_size = 16ULL << 20;
  config.inode_count = 65536;
  config.chunk_size = 1ULL << 20;
  config.materialize_data = true;
  return config;
}

class PipelineHarness {
 public:
  explicit PipelineHarness(const DfsConfig& config) {
    cluster_ = std::make_unique<core::Cluster>(&engine_, config);
    Status st = cluster_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~PipelineHarness() {
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
    ASSERT_TRUE(done) << "client task did not finish";
  }
  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  sim::Engine engine_;
  std::unique_ptr<core::Cluster> cluster_;
};

// --- Factory -----------------------------------------------------------------------

TEST(StageFactoryTest, MakesEveryNamedStageAndNothingElse) {
  for (std::string_view name : kStageNames) {
    std::unique_ptr<Stage> stage = MakeStage(name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->name(), name);
  }
  EXPECT_EQ(MakeStage("no_such_stage"), nullptr);
  EXPECT_EQ(MakeStage(""), nullptr);
}

TEST(StageFactoryTest, ParseStageListTrimsAndKeepsEmptyItems) {
  std::vector<std::string> names = ParseStageList("validate, compress ,checksum");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "validate");
  EXPECT_EQ(names[1], "compress");
  EXPECT_EQ(names[2], "checksum");
  // Empty items survive parsing so Validate() can name the malformation.
  EXPECT_EQ(ParseStageList("validate,,compress").size(), 3u);
}

// --- Config-chain validation -------------------------------------------------------

TEST(StageChainValidation, AcceptsWellFormedChains) {
  DfsConfig config = TestConfig();
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  config.pipeline_stages = "validate,compress,xor_encrypt,checksum";
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  config = TestConfig();
  config.pipeline_stages = "validate,checksum";
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
}

TEST(StageChainValidation, RejectsMalformedChains) {
  auto invalid = [](const std::string& stages) {
    DfsConfig config = TestConfig();
    config.pipeline_stages = stages;
    return config.Validate().code() == ErrorCode::kInvalid;
  };
  EXPECT_TRUE(invalid(""));                            // empty chain
  EXPECT_TRUE(invalid("validate,,compress"));          // empty entry
  EXPECT_TRUE(invalid("validate,frobnicate"));         // unknown stage
  EXPECT_TRUE(invalid("compress,validate"));           // validate not first
  EXPECT_TRUE(invalid("validate,compress,compress"));  // duplicate
  EXPECT_TRUE(invalid("validate,checksum,compress"));  // checksum not last
  EXPECT_TRUE(invalid("validate,xor_encrypt,compress"));  // LZW after cipher
}

// --- Per-chunk stage order ---------------------------------------------------------

TEST(StageChainTest, ChunksTraverseConfiguredStagesInOrder) {
  const std::vector<std::string> chain = {"validate", "compress", "xor_encrypt", "checksum"};
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,xor_encrypt,checksum";
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  PipelineHarness harness(config);
  harness.cluster_->trace().EnableRing(1 << 20);
  LibFs* fs = harness.cluster_->CreateClient(0);
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/order.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, 8ULL << 20, 0, 1)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(2 * sim::kSecond);
  ASSERT_EQ(harness.cluster_->trace().dropped(), 0u);

  // The primary's stage spans of each chunk, in the order they began.
  std::map<uint64_t, std::vector<obs::TraceEvent>> per_chunk;
  harness.cluster_->trace().ForEach([&](const obs::TraceEvent& ev) {
    if (ev.component == "nicfs.0" &&
        std::find(chain.begin(), chain.end(), ev.stage) != chain.end()) {
      per_chunk[ev.chunk_no].push_back(ev);
    }
  });
  ASSERT_GE(per_chunk.size(), 8u);
  for (auto& [chunk_no, spans] : per_chunk) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.begin < b.begin;
                     });
    ASSERT_EQ(spans.size(), chain.size()) << "chunk " << chunk_no;
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(spans[i].stage, chain[i]) << "chunk " << chunk_no;
      if (i > 0) {
        // Each stage starts only after the previous one finished the chunk.
        EXPECT_LE(spans[i - 1].end, spans[i].begin) << "chunk " << chunk_no;
      }
    }
  }
}

// --- Plugin wire round-trip --------------------------------------------------------

TEST(StagePluginTest, ChecksumAndCipherRoundTripThroughReplication) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,xor_encrypt,checksum";
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  PipelineHarness harness(config);
  LibFs* fs = harness.cluster_->CreateClient(0);

  // Compressible but non-trivial payload.
  std::vector<uint8_t> data(4ULL << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 64) % 17);
  }
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/rt.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, data, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(5 * sim::kSecond);

  // Both replicas verified every seal and undid the cipher + compression.
  for (int node : {1, 2}) {
    core::NicFs::StatsSnapshot stats = harness.cluster_->nicfs(node)->stats();
    EXPECT_GT(stats.checksum_verified, 0u) << "node " << node;
    EXPECT_EQ(stats.checksum_mismatches, 0u) << "node " << node;
    fslib::PublicFs& replica = harness.cluster_->dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "rt.dat");
    ASSERT_TRUE(inum.ok()) << "node " << node;
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(replica.ReadData(*inum, 0, out).ok()) << "node " << node;
    EXPECT_EQ(out, data) << "node " << node;
  }
  // The primary ran every configured stage.
  core::NicFs::StatsSnapshot primary = harness.cluster_->nicfs(0)->stats();
  for (const char* stage : {"validate", "compress", "xor_encrypt", "checksum"}) {
    ASSERT_TRUE(primary.stages.count(stage)) << stage;
    EXPECT_GT(primary.stages.at(stage).latency.count, 0u) << stage;
  }
}

TEST(StagePluginTest, XorCipherIsInvolutiveAndChecksumIsStable) {
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  std::vector<uint8_t> original = data;
  uint64_t seal = WireChecksum(data);
  XorCipher(&data);
  EXPECT_NE(data, original);
  EXPECT_NE(WireChecksum(data), seal);
  XorCipher(&data);
  EXPECT_EQ(data, original);
  EXPECT_EQ(WireChecksum(data), seal);
}

// --- Placer policy and migration ---------------------------------------------------

TEST(StagePlacerTest, ChoosesPooledRemoteNicThenHostFallback) {
  sim::Engine engine;
  StagePlacer::Options opts;
  opts.pooling = true;
  opts.nic_saturation = 0.5;
  obs::MetricsRegistry metrics;
  StagePlacer placer(&engine, opts, obs::MetricScope(&metrics, "placer"));

  // Zero-core NIC pools are saturated by definition (busy 0 >= 0.5 * 0);
  // a populated pool with idle cores is not.
  sim::CpuPool::Options zero;
  zero.cores = 0;
  sim::CpuPool::Options idle;
  idle.cores = 4;
  sim::CpuPool nic0(&engine, "nic0", zero);
  sim::CpuPool nic1(&engine, "nic1", idle);
  sim::CpuPool host0(&engine, "host0", idle);
  placer.AddSite({0, /*host=*/false, &nic0, 0});
  placer.AddSite({0, /*host=*/true, &host0, 0});
  placer.AddSite({1, /*host=*/false, &nic1, 0});

  // Local NIC saturated, remote NIC has headroom: pooled remote placement.
  const StagePlacer::Site* site = placer.ChooseSite(0);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->node, 1);
  EXPECT_FALSE(site->host);

  // With every NIC saturated, fall back to the origin's host cores.
  sim::CpuPool nic1_sat(&engine, "nic1_sat", zero);
  StagePlacer placer2(&engine, opts, obs::MetricScope(&metrics, "placer2"));
  placer2.AddSite({0, /*host=*/false, &nic0, 0});
  placer2.AddSite({0, /*host=*/true, &host0, 0});
  placer2.AddSite({1, /*host=*/false, &nic1_sat, 0});
  site = placer2.ChooseSite(0);
  ASSERT_NE(site, nullptr);
  EXPECT_TRUE(site->host);
  EXPECT_EQ(site->node, 0);

  // Pooling disabled: always local, saturated or not.
  StagePlacer::Options local_opts;
  local_opts.pooling = false;
  StagePlacer placer3(&engine, local_opts, obs::MetricScope(&metrics, "placer3"));
  placer3.AddSite({0, /*host=*/false, &nic0, 0});
  placer3.AddSite({0, /*host=*/true, &host0, 0});
  site = placer3.ChooseSite(0);
  ASSERT_NE(site, nullptr);
  EXPECT_FALSE(site->host);
  EXPECT_EQ(site->node, 0);
}

TEST(StagePlacerTest, MigrationPreservesChunkWireOrder) {
  DfsConfig config = TestConfig();
  PipelineHarness harness(config);
  LibFs* fs = harness.cluster_->CreateClient(0);
  StagePlacer& placer = harness.cluster_->placer();
  ASSERT_GT(placer.group_count(), 0u);
  // The validate group of the pipe we just registered.
  size_t group_id = 0;
  for (size_t i = 0; i < placer.group_count(); ++i) {
    if (placer.group(i).stage == "validate" && placer.group(i).node == 0) {
      group_id = i;
    }
  }
  // Node 0's host site is registered right after its NIC site.
  const StagePlacer::Site* host_site = nullptr;
  for (const StagePlacer::Site& s : placer.sites()) {
    if (s.node == 0 && s.host) {
      host_site = &s;
    }
  }
  ASSERT_NE(host_site, nullptr);

  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/mig.dat", fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    // First half with the NIC-resident worker...
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, 8ULL << 20, 0, 3)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
    // ...migrate the validate worker to the host mid-stream...
    harness.cluster_->placer().MigrateTo(group_id, *host_site);
    // ...second half with the relocated worker.
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, 8ULL << 20, 8ULL << 20, 3)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(3 * sim::kSecond);

  obs::MetricsRegistry::Snapshot snap = harness.cluster_->metrics().TakeSnapshot();
  EXPECT_GE(snap.counters["placer.migrations"], 1u);
  EXPECT_GE(snap.counters["placer.placements.host"], 1u);

  // Wire order survived the migration: the replicas hold the exact bytes.
  fslib::PublicFs& replica = harness.cluster_->dfs_node(1).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "mig.dat");
  ASSERT_TRUE(inum.ok());
  Result<fslib::FileAttr> attr = replica.GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 16ULL << 20);
  std::vector<uint8_t> expected(16ULL << 20);
  for (size_t i = 0; i < expected.size(); ++i) {
    // LibFs::PwriteGen pattern: seed + (absolute_offset * 131) % 251.
    expected[i] = static_cast<uint8_t>(3 + (i * 131) % 251);
  }
  std::vector<uint8_t> out(expected.size());
  ASSERT_TRUE(replica.ReadData(*inum, 0, out).ok());
  EXPECT_EQ(out, expected);
}

// --- Seeded faults with the plugin chain armed -------------------------------------

TEST(StageTortureTest, PluginChainSurvivesSeededFaults) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,compress,xor_encrypt,checksum";
  config.heartbeat_interval = 200 * sim::kMillisecond;
  config.heartbeat_timeout = 300 * sim::kMillisecond;
  PipelineHarness harness(config);
  core::Cluster& cluster = *harness.cluster_;

  fault::ScheduleOptions sched;
  sched.num_nodes = 3;
  sched.first_fault = 500 * sim::kMillisecond;
  sched.last_heal = 3 * sim::kSecond;
  sched.max_extra_faults = 1;
  fault::FaultPlan plan = fault::RandomPlan(/*seed=*/7, sched);
  ASSERT_TRUE(plan.Validate(3).ok()) << plan.ToSpec();
  SCOPED_TRACE("fault plan:\n" + plan.ToSpec());
  fault::Injector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  LibFs* fs = cluster.CreateClient(0);
  uint64_t ops = 0;
  harness.RunClient([&]() -> sim::Task<> {
    workloads::MiniKv kv(fs, workloads::MiniKv::Options{});
    Status st = co_await kv.Open();
    CO_ASSERT_OK(st);
    std::string value(4096, 'p');
    for (int i = 0; i < 160; ++i) {
      char key[24];
      std::snprintf(key, sizeof(key), "%016d", i);
      if ((co_await kv.Put(key, value)).ok()) {
        ++ops;
      }
      if (i % 8 == 0) {
        co_await harness.engine_.SleepFor(100 * sim::kMillisecond);
      }
    }
    co_await kv.Close();
  });
  EXPECT_GT(ops, 0u) << "no progress under faults";
  harness.Drain(2 * sim::kSecond);
  EXPECT_TRUE(injector.done());

  // Barrier write through the healed chain, then verify the seals held: the
  // replicas decoded every surviving chunk without a checksum mismatch.
  harness.RunClient([&]() -> sim::Task<> {
    std::vector<uint8_t> marker(256 << 10, 0xCD);
    Result<int> fd = co_await fs->Open("/plugin_barrier.dat",
                                       fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->Pwrite(*fd, marker, 0)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
  harness.Drain(2 * sim::kSecond);
  uint64_t verified = 0;
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    if (core::NicFs* nicfs = cluster.nicfs(node)) {
      core::NicFs::StatsSnapshot stats = nicfs->stats();
      verified += stats.checksum_verified;
      EXPECT_EQ(stats.checksum_mismatches, 0u) << "node " << node;
    }
  }
  EXPECT_GT(verified, 0u);
}

}  // namespace
}  // namespace linefs::pipeline
