#include "src/core/config.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/obs/critical_path.h"
#include "src/pipeline/stage.h"
#include "src/repl/protocol.h"
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
  if (repl::MakeProtocol(repl.protocol) == nullptr) {
    return Invalid("repl.protocol names unknown protocol '" + repl.protocol + "'");
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
  {
    // validate, then a subsequence of the wire transforms in kStageNames order.
    std::vector<std::string> stages = pipeline::ParseStageList(pipeline_stages);
    const std::string_view* end = std::end(pipeline::kStageNames);
    const std::string_view* next = std::begin(pipeline::kStageNames);
    bool ok = stages.front() == "validate";
    for (const std::string& name : stages) {
      next = std::find(next, end, name);
      if (next == end) {
        ok = false;
        break;
      }
      ++next;
    }
    if (!ok) {
      return Invalid("pipeline_stages must be 'validate' followed by a subsequence of "
                     "'compress,xor_encrypt,checksum', got '" + pipeline_stages + "'");
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
