#include "src/shard/txn.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"

namespace linefs::shard {

namespace {

// CPU cost of processing one transaction-plane message (lock-table lookup +
// record append), on top of the RPC layer's dispatch/wire charges.
constexpr sim::Time kTxnHandlerWork = 600;  // ns

}  // namespace

TxnService::TxnService(const Context& context, obs::MetricScope scope) : context_(context) {
  metrics_.started = scope.CounterAt("started");
  metrics_.committed = scope.CounterAt("committed");
  metrics_.aborted = scope.CounterAt("aborted");
  metrics_.prepares = scope.CounterAt("prepares");
  metrics_.vote_aborts = scope.CounterAt("vote_aborts");
  metrics_.in_doubt_resolved = scope.CounterAt("in_doubt_resolved");
  metrics_.in_doubt_aborts = scope.CounterAt("in_doubt_aborts");
}

void TxnService::Start() {
  rdma::RpcEndpoint* ep = context_.rpc->CreateEndpoint(
      EndpointName(context_.node), context_.self, context_.cpu, context_.account,
      /*has_low_lat_poller=*/true);
  ep->Handle<TxnPrepareReq, TxnVoteResp>(
      kTxnPrepare, [this](TxnPrepareReq req) { return HandlePrepare(req); });
  ep->Handle<TxnDecisionReq, TxnVoteResp>(
      kTxnCommit, [this](TxnDecisionReq req) { return HandleCommit(req); });
  ep->Handle<TxnDecisionReq, TxnVoteResp>(
      kTxnAbort, [this](TxnDecisionReq req) { return HandleAbort(req); });
  ep->Handle<TxnDecisionReq, TxnStatusResp>(
      kTxnStatus, [this](TxnDecisionReq req) { return HandleStatus(req); });
  context_.engine->Spawn(Sweeper(), "txn.sweeper");
}

void TxnService::Shutdown() {
  shutdown_ = true;
  context_.rpc->DestroyEndpoint(EndpointName(context_.node));
}

sim::Task<> TxnService::Persist() {
  if (context_.persist) {
    co_await context_.persist();
  }
}

sim::Task<Result<bool>> TxnService::Run(TxnOp op, uint32_t client, std::vector<int> participants,
                                        std::vector<uint64_t> locks) {
  LINEFS_CHECK(participants.size() == locks.size());
  metrics_.started->Increment();
  uint64_t txn_id = (static_cast<uint64_t>(context_.node + 1) << 32) | next_seq_++;

  // Group the lock set by participant node, deterministically ordered so two
  // racing coordinators prepare in the same node order (bounds livelock: the
  // loser of the first conflicting prepare votes abort instead of blocking).
  std::map<int, std::vector<uint64_t>> by_node;
  for (size_t i = 0; i < participants.size(); ++i) {
    std::vector<uint64_t>& inums = by_node[participants[i]];
    if (std::find(inums.begin(), inums.end(), locks[i]) == inums.end()) {
      inums.push_back(locks[i]);
    }
  }

  // Phase 1: PREPARE. Stop at the first no-vote or transport failure.
  std::vector<int> contacted;
  bool all_yes = true;
  Status transport = Status::Ok();
  for (const auto& [node, inums] : by_node) {
    TxnPrepareReq req;
    req.txn_id = txn_id;
    req.coordinator = context_.node;
    req.client = client;
    req.op = static_cast<uint8_t>(op);
    req.lock_count = static_cast<uint32_t>(std::min<size_t>(inums.size(), 2));
    for (uint32_t i = 0; i < req.lock_count; ++i) {
      req.locks[i] = inums[i];
    }
    contacted.push_back(node);
    Result<TxnVoteResp> vote = co_await context_.rpc->Call<TxnPrepareReq, TxnVoteResp>(
        context_.initiator, context_.self, context_.peers[node],
        rdma::Channel::kLowLat, kTxnPrepare, req, context_.rpc_timeout);
    if (!vote.ok()) {
      transport = vote.status();
      all_yes = false;
      break;
    }
    if (vote->status != 0) {
      all_yes = false;
      break;
    }
  }

  if (all_yes && crash_after_prepare_) {
    // Test hook: die between prepare and commit. No decision is logged, so
    // the participants' sweepers must resolve the transaction.
    co_return Status::Error(ErrorCode::kUnavailable, "txn coordinator crashed after prepare");
  }

  // Decide. The commit decision is durable before any COMMIT leaves, so a
  // kTxnStatus query can never contradict a commit already acted upon. Aborts
  // follow presumed-abort and need no persistence.
  Decision decision = all_yes ? kCommitted : kAborted;
  decisions_[txn_id] = decision;
  if (all_yes) {
    co_await Persist();
  }

  // Phase 2: notify every contacted participant. A lost decision message is
  // not retried here — the participant's in-doubt sweeper fetches it.
  uint32_t method = all_yes ? kTxnCommit : kTxnAbort;
  for (int node : contacted) {
    TxnDecisionReq req;
    req.txn_id = txn_id;
    Result<TxnVoteResp> ack = co_await context_.rpc->Call<TxnDecisionReq, TxnVoteResp>(
        context_.initiator, context_.self, context_.peers[node],
        rdma::Channel::kLowLat, method, req, context_.rpc_timeout);
    (void)ack;
  }

  if (all_yes) {
    metrics_.committed->Increment();
    co_return true;
  }
  metrics_.aborted->Increment();
  if (!transport.ok()) {
    co_return transport;
  }
  co_return false;
}

sim::Task<TxnVoteResp> TxnService::HandlePrepare(TxnPrepareReq req) {
  metrics_.prepares->Increment();
  if (context_.cpu) {
    co_await context_.cpu->Run(kTxnHandlerWork, sim::Priority::kHigh, context_.account);
  }
  if (prepared_.count(req.txn_id) != 0) {
    co_return TxnVoteResp{0};  // Duplicate prepare: still yes.
  }
  uint32_t count = std::min<uint32_t>(req.lock_count, 2);
  for (uint32_t i = 0; i < count; ++i) {
    auto it = intent_locks_.find(req.locks[i]);
    if (it != intent_locks_.end() && it->second != req.txn_id) {
      metrics_.vote_aborts->Increment();
      co_return TxnVoteResp{static_cast<int32_t>(ErrorCode::kBusy)};
    }
  }
  Prepared prepared;
  prepared.coordinator = req.coordinator;
  prepared.client = req.client;
  prepared.op = static_cast<TxnOp>(req.op);
  prepared.prepared_at = context_.engine->Now();
  for (uint32_t i = 0; i < count; ++i) {
    intent_locks_[req.locks[i]] = req.txn_id;
    prepared.inums.push_back(req.locks[i]);
  }
  prepared_[req.txn_id] = std::move(prepared);
  co_await Persist();  // Durable intent record before voting yes.
  co_return TxnVoteResp{0};
}

sim::Task<TxnVoteResp> TxnService::HandleCommit(TxnDecisionReq req) {
  if (context_.cpu) {
    co_await context_.cpu->Run(kTxnHandlerWork, sim::Priority::kHigh, context_.account);
  }
  ReleaseLocks(req.txn_id);
  co_return TxnVoteResp{0};
}

sim::Task<TxnVoteResp> TxnService::HandleAbort(TxnDecisionReq req) {
  if (context_.cpu) {
    co_await context_.cpu->Run(kTxnHandlerWork, sim::Priority::kHigh, context_.account);
  }
  ReleaseLocks(req.txn_id);
  co_return TxnVoteResp{0};
}

sim::Task<TxnStatusResp> TxnService::HandleStatus(TxnDecisionReq req) {
  if (context_.cpu) {
    co_await context_.cpu->Run(kTxnHandlerWork, sim::Priority::kHigh, context_.account);
  }
  co_return TxnStatusResp{static_cast<int32_t>(DecisionOf(req.txn_id))};
}

TxnService::Decision TxnService::DecisionOf(uint64_t txn_id) const {
  auto it = decisions_.find(txn_id);
  return it == decisions_.end() ? kUnknown : it->second;
}

void TxnService::ReleaseLocks(uint64_t txn_id) {
  auto it = prepared_.find(txn_id);
  if (it == prepared_.end()) {
    return;
  }
  for (uint64_t inum : it->second.inums) {
    auto lock = intent_locks_.find(inum);
    if (lock != intent_locks_.end() && lock->second == txn_id) {
      intent_locks_.erase(lock);
    }
  }
  prepared_.erase(it);
}

sim::Task<> TxnService::Sweeper() {
  while (!shutdown_) {
    co_await context_.engine->SleepFor(context_.sweep_interval);
    if (shutdown_) {
      break;
    }
    sim::Time now = context_.engine->Now();
    std::vector<uint64_t> stale;
    for (const auto& [txn_id, prepared] : prepared_) {
      if (now - prepared.prepared_at >= context_.in_doubt_timeout) {
        stale.push_back(txn_id);
      }
    }
    for (uint64_t txn_id : stale) {
      auto it = prepared_.find(txn_id);
      if (it == prepared_.end()) {
        continue;  // Decision arrived while we were resolving another txn.
      }
      int coordinator = it->second.coordinator;
      Decision decision = kUnknown;
      bool presumed = false;
      if (coordinator == context_.node) {
        // Local coordinator: consult the decision log directly. kUnknown here
        // means the coordinator task died before deciding -> presumed abort.
        decision = DecisionOf(txn_id);
        if (decision == kUnknown) {
          decision = kAborted;
          presumed = true;
        }
      } else if (context_.node_alive && !context_.node_alive(coordinator)) {
        // The cluster manager declared the coordinator dead: presumed abort.
        decision = kAborted;
        presumed = true;
      } else {
        TxnDecisionReq req;
        req.txn_id = txn_id;
        Result<TxnStatusResp> status =
            co_await context_.rpc->Call<TxnDecisionReq, TxnStatusResp>(
                context_.initiator, context_.self,
                context_.peers[coordinator], rdma::Channel::kLowLat,
                kTxnStatus, req, context_.rpc_timeout);
        if (!status.ok()) {
          continue;  // Unreachable (partition?) but not declared dead: retry later.
        }
        decision = static_cast<Decision>(status->state);
        if (decision == kUnknown) {
          // A live coordinator that never logged this txn: it crashed before
          // deciding (or this is a stray duplicate) -> presumed abort. Safe
          // because the coordinator logs COMMIT durably before phase 2, and
          // `in_doubt_timeout` far exceeds the bounded prepare phase
          // (participants x rpc_timeout), so an undecided-but-progressing
          // transaction is never swept.
          decision = kAborted;
          presumed = true;
        }
      }
      if (decision != kCommitted && decision != kAborted) {
        continue;
      }
      ReleaseLocks(txn_id);
      if (presumed) {
        metrics_.in_doubt_aborts->Increment();
      } else {
        metrics_.in_doubt_resolved->Increment();
      }
    }
  }
}

TxnService::Stats TxnService::stats() const {
  Stats s;
  s.started = metrics_.started->value();
  s.committed = metrics_.committed->value();
  s.aborted = metrics_.aborted->value();
  s.prepares = metrics_.prepares->value();
  s.vote_aborts = metrics_.vote_aborts->value();
  s.in_doubt_resolved = metrics_.in_doubt_resolved->value();
  s.in_doubt_aborts = metrics_.in_doubt_aborts->value();
  return s;
}

}  // namespace linefs::shard
