#include "src/core/lease.h"

#include <cstdio>

namespace linefs::core {

sim::Task<> LeaseManager::RevokeFlow(uint32_t holder, fslib::InodeNum inum) {
  auto handler = revoke_handlers_.find(holder);
  if (handler != revoke_handlers_.end()) {
    // Holder publishes its pending updates (so later validation still sees it
    // as the legal writer of those entries), then releases.
    co_await handler->second(inum);
  }
  auto it = records_.find(inum);
  if (it != records_.end()) {
    if (it->second.writer == holder + 1) {
      it->second.writer = 0;
      it->second.expires_at = 0;
    }
    it->second.revoking = false;
  }
}

Result<sim::Time> LeaseManager::TryAcquire(uint32_t client, fslib::InodeNum inum, bool write) {
  sim::Time now = context_.engine->Now();
  Record& record = records_[inum];
  bool expired = record.expires_at <= now;
  // While a revocation is in flight nobody — including the current holder —
  // may take or renew the lease; contenders retry after the hand-off.
  if (record.revoking) {
    return Status::Error(ErrorCode::kBusy, "lease hand-off in progress");
  }
  if (write) {
    if (record.writer != 0 && record.writer != client + 1) {
      // Another writer holds the lease — even if it has expired, it must
      // flush (publish) its pending updates before hand-off, or validation of
      // its already-logged entries would see the wrong holder (§3.4). Fresh
      // grants get a grace period so hand-off cannot livelock.
      if (!record.revoking && now - record.granted_at >= context_.min_hold) {
        record.revoking = true;
        ++revocations_;
        context_.engine->Spawn(RevokeFlow(record.writer - 1, inum), "lease.revoke");
      }
      return Status::Error(ErrorCode::kBusy, "write lease held by another client");
    }
    if (record.readers > 0 && record.writer == 0 && !expired) {
      // Readers present: a writer must wait for them to drain/expire.
      return Status::Error(ErrorCode::kBusy, "readers hold the lease");
    }
    if (record.writer != client + 1) {
      record.granted_at = now;  // Fresh hand-off: grace period restarts.
    }
    record.writer = client + 1;
    record.readers = 0;
  } else {
    if (record.writer != 0 && record.writer != client + 1) {
      if (!record.revoking && now - record.granted_at >= context_.min_hold) {
        record.revoking = true;
        ++revocations_;
        context_.engine->Spawn(RevokeFlow(record.writer - 1, inum), "lease.revoke");
      }
      return Status::Error(ErrorCode::kBusy, "writer holds the lease");
    }
    ++record.readers;
  }
  record.expires_at = now + context_.lease_duration;
  ++grants_;
  return record.expires_at;
}

bool LeaseManager::CheckWrite(uint32_t client, fslib::InodeNum inum) const {
  auto it = records_.find(inum);
  return it != records_.end() && it->second.writer == client + 1;
}

sim::Task<> LeaseManager::PersistGrant() {
  durable_.Add(1);
  // Persist the grant record (64B) from the arbiter's memory to host PM...
  co_await context_.net->Write(context_.initiator, context_.self,
                               rdma::MemAddr{context_.self.node, rdma::Space::kHostPm}, 64);
  // ...and mirror it to every replica arbiter.
  for (const rdma::MemAddr& replica : context_.replicas) {
    co_await context_.net->Write(context_.initiator, context_.self, replica, 64);
  }
  durable_.Done();
}

sim::Task<Result<sim::Time>> LeaseManager::AcquireSerial(uint32_t client, fslib::InodeNum inum,
                                                         bool write, uint64_t cycles) {
  co_await root_mu_.Lock();
  if (context_.initiator.cpu != nullptr) {
    co_await context_.initiator.cpu->RunCycles(cycles, context_.initiator.priority,
                                               context_.initiator.account);
  }
  Result<sim::Time> granted = TryAcquire(client, inum, write);
  if (granted.ok()) {
    // Local grant record durable before the reply leaves (64B to host PM);
    // replica mirrors retire the durability token asynchronously.
    durable_.Add(1);
    co_await context_.net->Write(context_.initiator, context_.self,
                                 rdma::MemAddr{context_.self.node, rdma::Space::kHostPm}, 64);
    context_.engine->Spawn(MirrorAndRetire(), "lease.mirror");
  }
  root_mu_.Unlock();
  co_return granted;
}

sim::Task<> LeaseManager::MirrorAndRetire() {
  for (const rdma::MemAddr& replica : context_.replicas) {
    co_await context_.net->Write(context_.initiator, context_.self, replica, 64);
  }
  durable_.Done();
}

}  // namespace linefs::core
