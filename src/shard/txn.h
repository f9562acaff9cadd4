// Cross-shard metadata transactions: two-phase commit between shard arbiters.
//
// One TxnService runs per node (on the SmartNIC service domain for LineFS
// modes, on the host for the Assise baselines). It plays both 2PC roles:
//
//   coordinator  Run() drives a transaction for a local client: PREPARE at
//                every participant arbiter, durably log the commit decision,
//                then COMMIT. Any prepare rejection or transport error aborts.
//   participant  Each shard arbiter votes by taking *intent locks* on the
//                inodes the transaction touches in its shard (conflicting
//                in-flight transactions are refused -> vote abort), persists
//                the intent record, and holds the locks until the decision
//                arrives.
//
// The client applies the actual namespace mutation (the rename log-entry
// append, which is atomic in the client's private log) only after Run()
// returns committed, so a crash anywhere in the protocol can never produce a
// dangling or duplicated dirent; what 2PC protects is the cross-shard intent
// plane — two transactions racing for the same dirents serialize or abort,
// and locks never leak across a crash:
//
// Recovery is presumed-abort, driven by the fault injector through cluster
// membership. A participant whose prepared transaction passes
// `in_doubt_timeout` asks the coordinator for the decision (kTxnStatus); an
// unknown transaction or a coordinator the cluster manager has declared dead
// resolves to ABORT and the intent locks are released. The coordinator logs
// its decision (persist cost) before the first COMMIT leaves, so a decided
// transaction is never mistaken for an aborted one while the coordinator
// lives.
//
// All messages travel over the existing rdma::RpcSystem ("txn/<node>"
// endpoints, low-latency channel), so partitions, RPC drops, and NIC stalls
// from the fault plane apply to the transaction plane like to every other
// control message.

#ifndef SRC_SHARD_TXN_H_
#define SRC_SHARD_TXN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rdma/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace linefs::shard {

// RPC method ids of the transaction plane. Own numbering space: the "txn/<n>"
// endpoint serves only these (core::RpcMethod documents the reservation).
enum TxnRpc : uint32_t {
  kTxnPrepare = 1,
  kTxnCommit = 2,
  kTxnAbort = 3,
  kTxnStatus = 4,
};

enum class TxnOp : uint8_t {
  kRename = 0,  // Move a dirent between two directories (possibly two shards).
  kLink = 1,    // Add a second dirent for an inode in another directory.
};

// Wire messages (trivially copyable PODs, like core/messages.h).
struct TxnPrepareReq {
  uint64_t txn_id = 0;
  int32_t coordinator = -1;   // Node whose TxnService drives this transaction.
  uint32_t client = 0;
  uint8_t op = 0;             // TxnOp.
  uint32_t lock_count = 0;    // Inodes this participant must intent-lock (<= 2).
  uint64_t locks[2] = {0, 0};
};

struct TxnVoteResp {
  int32_t status = 0;  // 0 = yes; ErrorCode::kBusy = lock conflict, vote abort.
};

struct TxnDecisionReq {
  uint64_t txn_id = 0;
};

struct TxnStatusResp {
  int32_t state = 0;  // TxnService::Decision.
};

class TxnService {
 public:
  // Decision-log states, also the kTxnStatus answer. kUnknown from a live
  // coordinator means "never prepared here or already garbage-collected":
  // presumed abort.
  enum Decision : int32_t {
    kUnknown = 0,
    kCommitted = 1,
    kAborted = 2,
  };

  struct Context {
    sim::Engine* engine = nullptr;
    rdma::RpcSystem* rpc = nullptr;
    int node = -1;
    rdma::MemAddr self;            // Endpoint memory domain.
    sim::CpuPool* cpu = nullptr;   // Endpoint handlers execute here.
    int account = -1;
    rdma::Initiator initiator;     // Outbound 2PC messages.
    std::vector<rdma::EndpointId> peers;  // Every node's "txn/<node>" endpoint, by node id.
    // Cluster membership view (ClusterManager-maintained): a dead coordinator
    // resolves in-doubt participants to ABORT.
    std::function<bool(int node)> node_alive;
    // Durable-record write (intent, decision): charged like a lease-grant
    // persist — arbiter memory to host PM.
    std::function<sim::Task<>()> persist;
    sim::Time in_doubt_timeout = 500 * sim::kMillisecond;
    sim::Time sweep_interval = 100 * sim::kMillisecond;
    sim::Time rpc_timeout = 20 * sim::kMillisecond;
  };

  TxnService(const Context& context, obs::MetricScope scope);

  static std::string EndpointName(int node) { return "txn/" + std::to_string(node); }

  // Registers the "txn/<node>" endpoint and starts the in-doubt sweeper.
  void Start();
  // Stops the sweeper and removes the endpoint.
  void Shutdown();

  // Coordinator role: runs one cross-shard transaction to a decision.
  // `participants[i]` intent-locks `locks[i]` (same length; a node appearing
  // twice locks both inodes in one prepare). Returns true if committed, false
  // if a participant voted abort (caller may retry), or an error status when
  // the transport failed mid-protocol (in-doubt state is cleaned up by the
  // participants' sweepers).
  sim::Task<Result<bool>> Run(TxnOp op, uint32_t client, std::vector<int> participants,
                              std::vector<uint64_t> locks);

  // Test hook: the coordinator stops dead after every participant prepared —
  // no decision is logged, no COMMIT/ABORT is sent. Paired with a cluster
  // membership transition this exercises the presumed-abort recovery path
  // deterministically.
  void set_crash_after_prepare(bool crash) { crash_after_prepare_ = crash; }

  // Participant-side introspection (tests, torture audits).
  size_t prepared_count() const { return prepared_.size(); }
  size_t intent_locks_held() const { return intent_locks_.size(); }
  bool Locked(uint64_t inum) const { return intent_locks_.count(inum) != 0; }
  Decision DecisionOf(uint64_t txn_id) const;

  struct Stats {
    uint64_t started = 0;          // Coordinator: transactions begun.
    uint64_t committed = 0;        // Coordinator: decided commit.
    uint64_t aborted = 0;          // Coordinator: decided abort (vote or error).
    uint64_t prepares = 0;         // Participant: prepare requests handled.
    uint64_t vote_aborts = 0;      // Participant: refused for a lock conflict.
    uint64_t in_doubt_resolved = 0;  // Sweeper: decisions fetched via kTxnStatus.
    uint64_t in_doubt_aborts = 0;  // Sweeper: presumed-abort releases.
  };
  Stats stats() const;

 private:
  struct Prepared {
    std::vector<uint64_t> inums;
    int coordinator = -1;
    uint32_t client = 0;
    TxnOp op = TxnOp::kRename;
    sim::Time prepared_at = 0;
  };

  sim::Task<TxnVoteResp> HandlePrepare(TxnPrepareReq req);
  sim::Task<TxnVoteResp> HandleCommit(TxnDecisionReq req);
  sim::Task<TxnVoteResp> HandleAbort(TxnDecisionReq req);
  sim::Task<TxnStatusResp> HandleStatus(TxnDecisionReq req);
  sim::Task<> Sweeper();
  // Releases `txn`'s intent locks and forgets it. Idempotent.
  void ReleaseLocks(uint64_t txn_id);
  sim::Task<> Persist();

  Context context_;
  uint64_t next_seq_ = 1;
  bool shutdown_ = false;
  bool crash_after_prepare_ = false;

  std::unordered_map<uint64_t, uint64_t> intent_locks_;  // inum -> txn_id.
  std::map<uint64_t, Prepared> prepared_;                // txn_id -> state.
  // Coordinator decision log (answers kTxnStatus). Never trimmed: entries are
  // 16 bytes and a simulated run is finite.
  std::unordered_map<uint64_t, Decision> decisions_;

  struct Metrics {
    obs::Counter* started = nullptr;
    obs::Counter* committed = nullptr;
    obs::Counter* aborted = nullptr;
    obs::Counter* prepares = nullptr;
    obs::Counter* vote_aborts = nullptr;
    obs::Counter* in_doubt_resolved = nullptr;
    obs::Counter* in_doubt_aborts = nullptr;
  };
  Metrics metrics_;
};

}  // namespace linefs::shard

#endif  // SRC_SHARD_TXN_H_
