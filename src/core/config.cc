#include "src/core/config.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/obs/critical_path.h"
#include "src/pipeline/registry.h"
#include "src/repl/registry.h"
#include "src/shard/shard_map.h"

namespace linefs::core {

namespace {

Status Invalid(const std::string& message) {
  return Status::Error(ErrorCode::kInvalid, "DfsConfig: " + message);
}

}  // namespace

Status DfsConfig::Validate() const {
  if (num_nodes < 1) {
    return Invalid("num_nodes must be >= 1, got " + std::to_string(num_nodes));
  }
  if (num_nodes > obs::CriticalPathFold::kMaxNodes) {
    return Invalid("num_nodes must be <= " + std::to_string(obs::CriticalPathFold::kMaxNodes) +
                   " (critical-path attribution keeps each op's nodes as a bit mask), got " +
                   std::to_string(num_nodes));
  }
  if (max_clients < 1) {
    return Invalid("max_clients must be >= 1, got " + std::to_string(max_clients));
  }
  if (chunk_size == 0) {
    return Invalid("chunk_size must be > 0");
  }
  if (log_size == 0) {
    return Invalid("log_size must be > 0");
  }
  if (log_size < chunk_size) {
    return Invalid("log_size (" + std::to_string(log_size) + ") must hold at least one chunk (" +
                   std::to_string(chunk_size) + ")");
  }
  if (pm_size == 0) {
    return Invalid("pm_size must be > 0");
  }
  if (inode_count == 0) {
    return Invalid("inode_count must be > 0");
  }
  if (fslib::Layout::Compute(pm_size, {inode_count, max_clients, log_size}).data_block_count == 0) {
    return Invalid("pm_size " + std::to_string(pm_size) + " leaves no data block after the inode "
                   "table and max_clients x log_size of client logs");
  }
  if (num_shards < 0) {
    return Invalid("num_shards must be >= 0 (0 = sharding off), got " +
                   std::to_string(num_shards));
  }
  if (!shard::ParsePlacement(shard_placement).ok()) {
    return Invalid("shard_placement must be 'hash' or 'dir', got '" + shard_placement + "'");
  }
  if (num_shards >= 1 && txn_in_doubt_timeout <= 0) {
    return Invalid("txn_in_doubt_timeout must be > 0 when sharded");
  }
  if (num_shards >= 1 && txn_sweep_interval <= 0) {
    return Invalid("txn_sweep_interval must be > 0 when sharded");
  }
  if (max_stage_workers < 1) {
    return Invalid("max_stage_workers must be >= 1, got " +
                   std::to_string(max_stage_workers));
  }
  if (stage_queue_threshold < 1) {
    return Invalid("stage_queue_threshold must be >= 1, got " +
                   std::to_string(stage_queue_threshold));
  }
  if (repl.fetch_depth < 1) {
    return Invalid("repl.fetch_depth must be >= 1, got " +
                   std::to_string(repl.fetch_depth));
  }
  if (repl.transfer_window < 1) {
    return Invalid("repl.transfer_window must be >= 1, got " +
                   std::to_string(repl.transfer_window));
  }
  {
    if (!repl::Protocols().Contains(repl.protocol)) {
      return Invalid("repl.protocol names unknown protocol '" +
                     repl.protocol + "'");
    }
    repl::ProtocolParams params;
    params.quorum_size = repl.quorum_size;
    auto protocol = repl::Protocols().Create(repl.protocol, params);
    if (repl.quorum_size < 0) {
      return Invalid("quorum_size must be >= 0, got " +
                     std::to_string(repl.quorum_size));
    }
    if (repl.quorum_size > num_nodes) {
      return Invalid("quorum_size (" + std::to_string(repl.quorum_size) +
                     ") cannot exceed num_nodes (" + std::to_string(num_nodes) + ")");
    }
    if (repl.quorum_size > 0 && !protocol->info().quorum) {
      return Invalid("quorum_size is only meaningful for quorum-style protocols; "
                     "repl.protocol '" + repl.protocol + "' ignores acks "
                     "past its own commit rule");
    }
  }
  if (read_path != "host" && read_path != "nic_rpc" && read_path != "adaptive") {
    return Invalid("read_path must be 'host', 'nic_rpc' or 'adaptive', got '" +
                   read_path + "'");
  }
  if (read_path != "host" && !IsLineFs()) {
    return Invalid("read_path '" + read_path + "' requires a LineFS mode "
                   "(non-LineFS baselines have no NICFS to forward reads to)");
  }
  if (!(read_nic_load_max > 0.0 && read_nic_load_max <= 1.0)) {
    return Invalid("read_nic_load_max must be in (0,1], got " +
                   std::to_string(read_nic_load_max));
  }
  if (compression_threads < 1) {
    return Invalid("compression_threads must be >= 1, got " +
                   std::to_string(compression_threads));
  }
  {
    std::vector<std::string> stages = pipeline::ParseStageList(pipeline_stages);
    if (stages.empty()) {
      return Invalid("pipeline_stages must name at least one stage");
    }
    for (const std::string& name : stages) {
      if (name.empty()) {
        return Invalid("pipeline_stages has an empty entry: '" + pipeline_stages + "'");
      }
      if (!pipeline::Stages().Contains(name)) {
        return Invalid("pipeline_stages names unknown stage '" + name + "'");
      }
      if (std::count(stages.begin(), stages.end(), name) > 1) {
        return Invalid("pipeline_stages lists '" + name + "' more than once");
      }
    }
    if (stages.front() != "validate") {
      return Invalid("pipeline_stages must start with 'validate' (the shared "
                     "fan-out stage feeds both publication and replication)");
    }
    auto pos = [&stages](const std::string& name) {
      return std::find(stages.begin(), stages.end(), name);
    };
    auto compress_it = pos("compress");
    auto encrypt_it = pos("xor_encrypt");
    if (compress_it != stages.end() && encrypt_it != stages.end() &&
        encrypt_it < compress_it) {
      return Invalid("'xor_encrypt' must come after 'compress' "
                     "(ciphertext does not compress)");
    }
    auto checksum_it = pos("checksum");
    if (checksum_it != stages.end() && checksum_it + 1 != stages.end()) {
      return Invalid("'checksum' must be the last stage so the seal covers "
                     "the bytes actually sent");
    }
  }
  if (!(placer_nic_saturation > 0.0 && placer_nic_saturation <= 1.0)) {
    return Invalid("placer_nic_saturation must be in (0,1], got " +
                   std::to_string(placer_nic_saturation));
  }
  if (heartbeat_interval <= 0) {
    return Invalid("heartbeat_interval must be positive");
  }
  if (heartbeat_timeout <= 0) {
    return Invalid("heartbeat_timeout must be positive");
  }
  if (heartbeat_timeout < heartbeat_interval) {
    return Invalid("heartbeat_timeout must be >= heartbeat_interval");
  }
  if (lease_duration <= 0) {
    return Invalid("lease_duration must be positive");
  }
  if (timeline_window < 0) {
    return Invalid("timeline_window must be >= 0 (0 disables telemetry)");
  }
  return Status::Ok();
}

}  // namespace linefs::core
