// Lease management (§3.4).
//
// Leases provide single-writer multiple-reader access to files/directories.
// In LineFS the arbiter runs on the SmartNIC: a grant updates lease state in
// NIC memory immediately and the grant record is persisted to host PM and
// replicated *asynchronously*, off the critical path; fsync() waits for all
// outstanding lease durability work (WaitDurable). In Assise modes the same
// manager runs on the host (SharedFS) with host-side persistence costs.

#ifndef SRC_CORE_LEASE_H_
#define SRC_CORE_LEASE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/fslib/types.h"
#include "src/rdma/rdma.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace linefs::core {

class LeaseManager {
 public:
  struct Context {
    sim::Engine* engine = nullptr;
    rdma::Network* net = nullptr;
    // Who runs arbitration (NIC cores for LineFS, host cores for Assise).
    rdma::Initiator initiator;
    // Where the lease table persists from (the arbiter's memory domain).
    rdma::MemAddr self;
    // Replica NICFS/SharedFS memory domains to mirror grants into.
    std::vector<rdma::MemAddr> replicas;
    sim::Time lease_duration = sim::kSecond;
    // Grace period before a fresh grant may be revoked: gives the holder time
    // to complete the operation it acquired the lease for (prevents hand-off
    // livelock under heavy sharing).
    sim::Time min_hold = 2 * sim::kMillisecond;
  };

  // Asks the holding client to flush (publish) its pending updates to the
  // inode and release the lease. Registered per client by the DFS service.
  using RevokeHandler = std::function<sim::Task<>(fslib::InodeNum inum)>;

  explicit LeaseManager(const Context& context)
      : context_(context), durable_(context.engine), root_mu_(context.engine) {}

  void RegisterRevokeHandler(uint32_t client, RevokeHandler handler) {
    revoke_handlers_[client] = std::move(handler);
  }

  // In-memory grant (immediate). Returns the new expiry time, or kBusy if a
  // different client holds a conflicting lease. A conflicting unexpired write
  // lease triggers asynchronous revocation: the holder publishes its pending
  // updates, then releases; the requester retries until granted (§3.4).
  Result<sim::Time> TryAcquire(uint32_t client, fslib::InodeNum inum, bool write);

  // Sharded-plane grant path (DESIGN.md §13): each shard's arbiter is a
  // single logical thread on its SmartNIC, so grant processing — the cycle
  // charge, the table update, and the local persist of the grant record —
  // serializes through root_mu_. The record must be durable before the reply
  // leaves: peer validators consult this arbiter's mirrored state, so a grant
  // lost in a crash could otherwise admit a second writer. Replica mirrors
  // stay asynchronous (they only matter after failover, which expires the
  // epoch). TryAcquire never suspends, so the root mutex is never held across
  // a revocation wait.
  sim::Task<Result<sim::Time>> AcquireSerial(uint32_t client, fslib::InodeNum inum, bool write,
                                             uint64_t cycles);

  // Validation-stage check: does `client` hold the write lease on `inum`?
  bool CheckWrite(uint32_t client, fslib::InodeNum inum) const;

  // Background durability for one grant: persist to host PM + replicate.
  // Spawned by the owning service after each successful TryAcquire.
  sim::Task<> PersistGrant();

  // fsync barrier: waits until every outstanding grant is durable.
  sim::WaitGroup& durable() { return durable_; }

  // Fail-over: the cluster manager expires every lease this arbiter issued.
  void ExpireAll() { records_.clear(); }

  // Safety audit (torture harness): every inode with an unexpired write grant,
  // mapped to the holding client. Across all arbiters, an inode must never
  // appear with two different holders at one instant (single-writer safety).
  std::unordered_map<fslib::InodeNum, uint32_t> ActiveWriters(sim::Time now) const {
    std::unordered_map<fslib::InodeNum, uint32_t> writers;
    for (const auto& [inum, record] : records_) {
      if (record.writer != 0 && record.expires_at > now) {
        writers[inum] = record.writer - 1;
      }
    }
    return writers;
  }

  size_t active_leases() const { return records_.size(); }
  uint64_t grants() const { return grants_; }
  uint64_t revocations() const { return revocations_; }

 private:
  struct Record {
    uint32_t writer = 0;          // client id + 1; 0 = none.
    uint32_t readers = 0;
    sim::Time expires_at = 0;
    sim::Time granted_at = 0;
    bool revoking = false;        // A flush-and-release is in flight.
  };

  sim::Task<> RevokeFlow(uint32_t holder, fslib::InodeNum inum);
  // Mirrors the latest grant record to every replica arbiter, then retires
  // the durability token taken by AcquireSerial.
  sim::Task<> MirrorAndRetire();

  Context context_;
  std::unordered_map<fslib::InodeNum, Record> records_;
  std::unordered_map<uint32_t, RevokeHandler> revoke_handlers_;
  sim::WaitGroup durable_;
  sim::Mutex root_mu_;  // Serial arbiter root (sharded plane only).
  uint64_t grants_ = 0;
  uint64_t revocations_ = 0;
};

}  // namespace linefs::core

#endif  // SRC_CORE_LEASE_H_
