// The pipeline-stage API (src/pipeline): the stage factory and config-chain
// validation, per-chunk stage order through the generic workers, wire
// round-trips of the transform stages (checksum seal, XOR scrambling), NICFS
// stage scaling (host fallback, scale-down), and a seeded fault run with the
// full chain armed.

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

// --- Stage scaling (NicFs::ScaleStages) -------------------------------------------

// A hair-trigger grow threshold, and a NIC that counts as saturated as soon as
// one of its cores is busy.
DfsConfig ScalingConfig(bool host_fallback) {
  DfsConfig config = TestConfig();
  config.pipeline_stages = "validate,xor_encrypt,checksum";
  config.stage_queue_threshold = 1;
  config.max_stage_workers = 4;
  config.placer_pooling = host_fallback;
  config.placer_nic_saturation = 0.01;
  return config;
}

// Writes `bytes` of LibFs::PwriteGen's pattern to `path` in one burst, then
// fsyncs.
void WriteBurst(PipelineHarness& harness, LibFs* fs, const char* path, uint64_t bytes) {
  harness.RunClient([&]() -> sim::Task<> {
    Result<int> fd = co_await fs->Open(path, fslib::kOpenCreate | fslib::kOpenWrite);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK((co_await fs->PwriteGen(*fd, bytes, 0, 3)));
    CO_ASSERT_OK(co_await fs->Fsync(*fd));
  });
}

TEST(StageScalingTest, HostFallbackWorkersKeepWireOrder) {
  PipelineHarness harness(ScalingConfig(/*host_fallback=*/true));
  LibFs* fs = harness.cluster_->CreateClient(0);
  WriteBurst(harness, fs, "/spill.dat", 16ULL << 20);
  harness.Drain(3 * sim::kSecond);

  // Grown workers ran on the host beside the NIC-resident first worker.
  obs::MetricsRegistry::Snapshot snap = harness.cluster_->metrics().TakeSnapshot();
  EXPECT_GE(snap.counters["placer.placements.host"], 1u);

  // Wire order survived NIC and host workers sharing each stage: the replicas
  // hold the exact bytes.
  for (int node : {1, 2}) {
    SCOPED_TRACE("replica " + std::to_string(node));
    fslib::PublicFs& replica = harness.cluster_->dfs_node(node).fs();
    Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "spill.dat");
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
}

TEST(StageScalingTest, WithoutHostFallbackEveryWorkerStaysOnTheNic) {
  PipelineHarness harness(ScalingConfig(/*host_fallback=*/false));
  LibFs* fs = harness.cluster_->CreateClient(0);
  WriteBurst(harness, fs, "/local.dat", 16ULL << 20);
  harness.Drain(3 * sim::kSecond);

  // The same saturated NIC grows workers, but only on itself.
  obs::MetricsRegistry::Snapshot snap = harness.cluster_->metrics().TakeSnapshot();
  EXPECT_GE(snap.counters["placer.placements.local"], 1u);
  EXPECT_EQ(snap.counters["placer.placements.host"], 0u);
}

TEST(StageScalingTest, ExtraWorkerRetiresAfterThreeQuietChecks) {
  DfsConfig config = ScalingConfig(/*host_fallback=*/false);
  config.pipeline_stages = "validate";
  PipelineHarness harness(config);
  LibFs* fs = harness.cluster_->CreateClient(0);
  WriteBurst(harness, fs, "/quiet.dat", 16ULL << 20);
  core::NicFs* nicfs = harness.cluster_->nicfs(0);
  int grown = nicfs->stats().stages["validate"].workers - 1;
  ASSERT_GE(grown, 2) << "the burst must grow at least two extra workers";

  // Idle from here on: record when each retirement lands, in 1 ms steps.
  std::vector<sim::Time> retired_at;
  uint64_t retired = nicfs->stats().stage_workers_retired;
  sim::Time end = harness.engine_.Now() + 200 * sim::kMillisecond;
  while (harness.engine_.Now() < end) {
    harness.Drain(sim::kMillisecond);
    uint64_t now_retired = nicfs->stats().stage_workers_retired;
    for (; retired < now_retired; ++retired) {
      retired_at.push_back(harness.engine_.Now());
    }
  }
  // Every extra worker retired, one at a time, and one worker survives.
  ASSERT_EQ(retired_at.size(), static_cast<size_t>(grown));
  EXPECT_EQ(nicfs->stats().stages["validate"].workers, 1);
  // A retirement resets the count, so the next one takes another three quiet
  // checks, one every 2 ms.
  for (size_t i = 1; i < retired_at.size(); ++i) {
    EXPECT_EQ(retired_at[i] - retired_at[i - 1], 6 * sim::kMillisecond) << "retirement " << i;
  }
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
