// Per-node DFS state container: the public PM area, per-client log areas,
// the shared-plan table used to hand publication copy lists to the kernel
// worker, and the node's per-epoch inode history bitmap (§3.6).

#ifndef SRC_CORE_DFS_NODE_H_
#define SRC_CORE_DFS_NODE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/hw/node.h"

namespace linefs::core {

// The history bitmap (§3.6): which inodes a node updated in each epoch, so a
// recovering replica resynchronises only those. One bit per inode per epoch;
// an epoch's bitmap grows to the highest inum recorded in it.
class InodeHistory {
 public:
  InodeHistory() = default;
  InodeHistory(const InodeHistory&) = delete;  // current_ points into bitmaps_.
  InodeHistory& operator=(const InodeHistory&) = delete;

  void Record(uint64_t epoch, fslib::InodeNum inum) {
    if (current_ == nullptr || epoch != current_epoch_) {
      current_epoch_ = epoch;
      current_ = &bitmaps_[epoch];
    }
    size_t word = inum / 64;
    if (word >= current_->size()) {
      current_->resize(word + 1);
    }
    (*current_)[word] |= uint64_t{1} << (inum % 64);
  }

  // Every inode recorded in `from_epoch` or later.
  std::set<fslib::InodeNum> UpdatedSince(uint64_t from_epoch) const {
    std::vector<uint64_t> merged;
    for (auto it = bitmaps_.lower_bound(from_epoch); it != bitmaps_.end(); ++it) {
      const std::vector<uint64_t>& bitmap = it->second;
      merged.resize(std::max(merged.size(), bitmap.size()));
      for (size_t w = 0; w < bitmap.size(); ++w) {
        merged[w] |= bitmap[w];
      }
    }
    std::set<fslib::InodeNum> result;
    for (size_t w = 0; w < merged.size(); ++w) {
      for (uint64_t bits = merged[w]; bits != 0; bits &= bits - 1) {
        result.insert(w * 64 + static_cast<uint64_t>(std::countr_zero(bits)));
      }
    }
    return result;
  }

 private:
  std::map<uint64_t, std::vector<uint64_t>> bitmaps_;  // epoch -> inode bits
  // The last recorded epoch and its bitmap: publication records runs of
  // updates in one epoch.
  uint64_t current_epoch_ = 0;
  std::vector<uint64_t>* current_ = nullptr;
};

class DfsNode {
 public:
  DfsNode(hw::Node* hw, const DfsConfig& config)
      : hw_(hw), config_(&config),
        layout_(fslib::Layout::Compute(
            config.pm_size, {config.inode_count, config.max_clients, config.log_size})),
        fs_(&hw->pm(), layout_, config.materialize_data) {
    fs_.Mkfs();
    logs_.resize(config.max_clients);
  }

  hw::Node& hw() { return *hw_; }
  int id() const { return hw_->id(); }
  fslib::PublicFs& fs() { return fs_; }
  const fslib::Layout& layout() const { return layout_; }

  // The node's copy of client `c`'s operational log (created on first use;
  // replicas mirror the primary's log at identical logical positions).
  fslib::LogArea& client_log(int client) {
    if (!logs_[client]) {
      logs_[client] = std::make_unique<fslib::LogArea>(
          &hw_->pm(), layout_.LogOffset(client), layout_.log_size,
          static_cast<uint32_t>(client), config_->materialize_data);
    }
    return *logs_[client];
  }

  // --- Shared plan table (NICFS -> kernel worker hand-off) ------------------

  // The table shares the plan: the kernel worker may consume it after the
  // NICFS-side caller has timed out and moved on (host crash mid-RPC).
  uint64_t StashPlan(std::shared_ptr<const fslib::PublishPlan> plan) {
    uint64_t id = next_plan_id_++;
    plans_.emplace(id, std::move(plan));
    return id;
  }
  // The stashed plan, removed from the table; null if already taken.
  std::shared_ptr<const fslib::PublishPlan> TakePlan(uint64_t id) {
    auto it = plans_.find(id);
    if (it == plans_.end()) {
      return nullptr;
    }
    std::shared_ptr<const fslib::PublishPlan> plan = std::move(it->second);
    plans_.erase(it);
    return plan;
  }

  // --- History bitmap (§3.6) -------------------------------------------------

  void RecordInodeUpdate(uint64_t epoch, fslib::InodeNum inum) { history_.Record(epoch, inum); }
  std::set<fslib::InodeNum> InodesUpdatedSince(uint64_t from_epoch) const {
    return history_.UpdatedSince(from_epoch);
  }

 private:
  hw::Node* hw_;
  const DfsConfig* config_;
  fslib::Layout layout_;
  fslib::PublicFs fs_;
  std::vector<std::unique_ptr<fslib::LogArea>> logs_;
  std::unordered_map<uint64_t, std::shared_ptr<const fslib::PublishPlan>> plans_;
  uint64_t next_plan_id_ = 1;
  InodeHistory history_;
};

}  // namespace linefs::core

#endif  // SRC_CORE_DFS_NODE_H_
