// DfsConfig::Validate() rejects out-of-range configurations with a Status,
// and Cluster::Start() refuses to boot with one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/obs/critical_path.h"
#include "src/sim/engine.h"

namespace linefs::core {
namespace {

DfsConfig SmallConfig() {
  DfsConfig config;
  config.num_nodes = 3;
  config.pm_size = 64ULL << 20;
  config.log_size = 4ULL << 20;
  config.chunk_size = 256ULL << 10;
  config.inode_count = 4096;
  return config;
}

TEST(DfsConfigValidate, DefaultAndScaledConfigsAreValid) {
  DfsConfig defaults;
  EXPECT_TRUE(defaults.Validate().ok()) << defaults.Validate().ToString();
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

TEST(DfsConfigValidate, RejectsBadNodeAndClientCounts) {
  DfsConfig config = SmallConfig();
  config.num_nodes = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.num_nodes = -2;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.num_nodes = obs::CriticalPathFold::kMaxNodes + 1;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.max_clients = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
}

TEST(DfsConfigValidate, RejectsBadSizes) {
  DfsConfig config = SmallConfig();
  config.chunk_size = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.log_size = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  // A log smaller than one pipeline chunk can never form a work item.
  config = SmallConfig();
  config.log_size = config.chunk_size / 2;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.pm_size = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.inode_count = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
}

TEST(DfsConfigValidate, RejectsBadWorkerCounts) {
  DfsConfig config = SmallConfig();
  config.max_stage_workers = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.stage_queue_threshold = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
}

// The pipeline_stages rule -- "validate" followed by a subsequence of
// compress, xor_encrypt, checksum -- over every ordering of every subset of
// the four stage names. It must accept exactly what the five separate rules
// it replaced accepted: known names, no repeats, validate first, xor_encrypt
// after compress, checksum last.
TEST(DfsConfigValidate, StageChainRuleMatchesTheSeparateOrderingRules) {
  const std::vector<std::string> names = {"validate", "compress", "xor_encrypt", "checksum"};
  auto subsequence_rule = [&](const std::vector<std::string>& chain) {
    if (chain.empty() || chain[0] != "validate") return false;
    auto next = names.begin() + 1;
    for (size_t i = 1; i < chain.size(); ++i) {
      next = std::find(next, names.end(), chain[i]);
      if (next == names.end()) return false;
      ++next;
    }
    return true;
  };
  auto separate_rules = [](const std::vector<std::string>& chain) {
    auto pos = [&chain](const char* name) {
      return std::find(chain.begin(), chain.end(), name) - chain.begin();
    };
    const long size = static_cast<long>(chain.size());
    return size > 0 && chain[0] == "validate" &&
           !(pos("compress") < size && pos("xor_encrypt") < size &&
             pos("xor_encrypt") < pos("compress")) &&
           !(pos("checksum") < size && pos("checksum") != size - 1);
  };
  int accepted = 0;
  int chains = 0;
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::vector<std::string> subset;
    for (size_t i = 0; i < names.size(); ++i) {
      if (mask & (1u << i)) subset.push_back(names[i]);
    }
    std::sort(subset.begin(), subset.end());
    do {
      std::string csv;
      for (const std::string& name : subset) {
        csv += (csv.empty() ? "" : ",") + name;
      }
      DfsConfig config = SmallConfig();
      config.pipeline_stages = csv;
      bool ok = config.Validate().ok();
      EXPECT_EQ(ok, subsequence_rule(subset)) << "'" << csv << "'";
      EXPECT_EQ(ok, separate_rules(subset)) << "'" << csv << "'";
      accepted += ok;
      ++chains;
    } while (std::next_permutation(subset.begin(), subset.end()));
  }
  EXPECT_EQ(chains, 65);    // 1 + 4 + 12 + 24 + 24 orderings.
  EXPECT_EQ(accepted, 8);   // validate plus any of the 2^3 transform subsets.
}

TEST(DfsConfigValidate, RejectsBadTimeouts) {
  DfsConfig config = SmallConfig();
  config.heartbeat_interval = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.heartbeat_timeout = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  // A timeout below the probe interval would declare every node dead.
  config = SmallConfig();
  config.heartbeat_timeout = config.heartbeat_interval / 2;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
  config = SmallConfig();
  config.lease_duration = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalid);
}

TEST(DfsConfigValidate, ErrorsNameTheOffendingKnob) {
  DfsConfig config = SmallConfig();
  config.read_nic_load_max = 2.0;
  Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("read_nic_load_max"), std::string::npos) << st.ToString();
}

TEST(ClusterStart, RefusesInvalidConfig) {
  DfsConfig no_stage_workers = SmallConfig();
  no_stage_workers.max_stage_workers = 0;
  // 16 client logs of 64 MB do not fit in 1 GB of PM: no data block is left.
  // The constructor must survive the layout for Start() to refuse it.
  DfsConfig pm_too_small = SmallConfig();
  pm_too_small.pm_size = 1ULL << 30;
  pm_too_small.max_clients = 16;
  pm_too_small.log_size = 64ULL << 20;
  for (const auto& [config, knob] : {std::pair{no_stage_workers, "max_stage_workers"},
                                     std::pair{pm_too_small, "pm_size"}}) {
    sim::Engine engine;
    Cluster cluster(&engine, config);
    Status st = cluster.Start();
    EXPECT_EQ(st.code(), ErrorCode::kInvalid) << knob;
    EXPECT_NE(st.message().find(knob), std::string::npos) << st.ToString();
  }
}

TEST(ClusterStartDeathTest, ClientPastMaxClientsAborts) {
  sim::Engine engine;
  DfsConfig config = SmallConfig();
  config.max_clients = 2;
  Cluster cluster(&engine, config);
  ASSERT_TRUE(cluster.Start().ok());
  cluster.CreateClient(0);
  cluster.CreateClient(1);
  // Every node keeps one log area per client id: a third id has none.
  EXPECT_DEATH(cluster.CreateClient(0), "exceeds max_clients");
  cluster.Shutdown();
  engine.Run();
}

TEST(ClusterStart, BootsValidConfigAndGuardsBadIds) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallConfig());
  Status st = cluster.Start();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Out-of-range (including negative) service ids return nullptr, not UB.
  EXPECT_NE(cluster.nicfs(0), nullptr);
  EXPECT_EQ(cluster.nicfs(-1), nullptr);
  EXPECT_EQ(cluster.nicfs(99), nullptr);
  EXPECT_EQ(cluster.sharedfs(-1), nullptr);
  EXPECT_EQ(cluster.sharedfs(0), nullptr);  // LineFS mode: no SharedFS.
  EXPECT_NE(cluster.kworker(0), nullptr);
  EXPECT_EQ(cluster.kworker(-1), nullptr);
  EXPECT_EQ(cluster.kworker(99), nullptr);
  cluster.Shutdown();
  engine.Run();
}

}  // namespace
}  // namespace linefs::core
