// Wire messages (trivially copyable PODs) exchanged between LibFS, NICFS,
// kernel workers, SharedFS instances, and the cluster manager.

#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>

#include "src/fslib/types.h"
#include "src/obs/trace.h"

namespace linefs::core {

// RPC method ids.
enum RpcMethod : uint32_t {
  kRpcStartPipeline = 1,  // LibFS -> NICFS/SharedFS: a chunk's worth of log is ready.
  kRpcFsync = 2,          // LibFS -> NICFS/SharedFS: replicate+persist up to `upto`.
  kRpcOpen = 3,           // LibFS -> NICFS: permission check + kworker mmap (§3.6).
  kRpcLease = 4,          // LibFS -> lease manager.
  // 5 is unused: leases end by expiry or revocation, never by release.
  kRpcReplChunk = 6,      // NICFS -> next NICFS: chunk data has been RDMA'd over.
                          // Delivered as a one-way Post; no response round trip.
  kRpcReplAck = 7,        // replica NICFS -> primary NICFS, also a one-way Post
                          // (the reverse direction of the kRpcReplChunk flow).
  kRpcKworkerPing = 8,    // NICFS -> kworker (failure detector).
  kRpcKworkerCopy = 9,    // NICFS -> kworker: execute a publication copy list.
  kRpcKworkerMmap = 10,   // NICFS -> kworker: map pages read-only for a client.
  kRpcHeartbeat = 11,     // cluster manager -> NICFS.
  kRpcEpochUpdate = 12,   // cluster manager -> NICFS: epoch changed.
  kRpcHistoryBitmap = 13, // recovering NICFS -> replica NICFS.
  kRpcFetchInode = 14,    // recovering NICFS -> replica NICFS.
  kRpcShardWrite = 15,    // CephLike client -> server.
  kRpcShardRead = 16,
  // 17-20 are reserved for the cross-shard transaction plane. Those messages
  // travel on the dedicated "txn/<node>" endpoints with their own method
  // numbering (shard::TxnRpc in src/shard/txn.h), never on nicfs/sharedfs
  // endpoints; the reservation only prevents an accidental future overlap.
  kRpcRead = 21,          // LibFS -> local NICFS: NIC-routed read (adaptive path).
};

struct Ack {
  int32_t status = 0;  // 0 = OK, otherwise ErrorCode.
};

struct StartPipelineReq {
  uint32_t client = 0;
  obs::TraceContext ctx;  // Parents the pipeline's stage spans (causal tracing).
};

struct FsyncReq {
  uint32_t client = 0;
  uint64_t upto = 0;  // Logical log position that must be replicated+durable.
  obs::TraceContext ctx;  // Root minted by LibFs::Fsync.
};

// NIC-routed read (read_path = nic_rpc/adaptive): the NIC core walks the
// index and streams the data host-ward over PCIe, freeing the host CPU from
// the per-byte copy. Data movement is modelled by timing only; the host still
// materialises bytes locally (same Region), so no payload travels in the
// response message.
struct ReadReq {
  uint32_t client = 0;
  fslib::InodeNum inum = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
};

struct OpenReq {
  uint32_t client = 0;
  fslib::InodeNum inum = 0;
  uint32_t flags = 0;
};

struct LeaseReq {
  uint32_t client = 0;
  fslib::InodeNum inum = 0;
  uint8_t write = 0;
};

struct LeaseResp {
  int32_t status = 0;
  uint64_t expires_at = 0;
};

struct ReplChunkMsg {
  uint64_t chunk_no = 0;
  uint64_t from = 0;  // Logical log range [from, to).
  uint64_t to = 0;
  uint64_t wire_bytes = 0;   // Bytes that crossed the network (post-compression).
  uint64_t checksum = 0;     // Seal over the wire bytes as sent.
  uint64_t ticket = 0;       // Wire-stash key of this delivery's own payload (0: none).
  obs::TraceContext ctx;     // Sender-side transfer span; replica spans nest under it.
  uint32_t client = 0;
  int32_t origin_node = 0;   // Primary node id.
  int32_t hop = 0;           // Position in the chain (1 = first replica).
  uint8_t compressed = 0;
  uint8_t encrypted = 0;         // Wire bytes are XOR-scrambled (xor_encrypt stage).
  uint8_t checksum_present = 0;  // `checksum` carries a CRC32C seal to verify.
  uint8_t direct_to_host = 0;  // Penultimate-hop optimisation (Fig. 3, step 6').
  uint8_t urgent = 0;          // fsync-path chunk: use the low-latency channel.
  uint8_t fanout = 0;          // Terminal point-to-point delivery: apply, never forward
                               // (quorum dispatch and retransmit refills).
};
// A control message's wire time is max(control_bytes, sizeof): widening it
// would shift every replication timing.
static_assert(sizeof(ReplChunkMsg) == 88, "keep ReplChunkMsg at 88 bytes");

struct ReplAckMsg {
  uint32_t client = 0;
  uint64_t chunk_no = 0;
  uint64_t to = 0;         // Log position covered.
  int32_t replica_node = 0;
  obs::TraceContext ctx;   // Replica-side copy span the ack resolves.
};

struct PingReq {
  int32_t from_node = 0;
};

struct KworkerCopyReq {
  uint32_t client = 0;
  uint64_t plan_id = 0;  // Key into the node's shared plan table.
  obs::TraceContext ctx;  // Publish span on the NIC; the host copy nests under it.
};

struct HeartbeatMsg {
  uint64_t epoch = 0;
};

struct EpochUpdateMsg {
  uint64_t epoch = 0;
};

struct HistoryBitmapReq {
  uint64_t from_epoch = 0;
};

struct HistoryBitmapResp {
  int32_t status = 0;
  uint32_t inode_count = 0;  // Number of inodes updated since from_epoch.
};

struct FetchInodeReq {
  fslib::InodeNum inum = 0;
};

struct FetchInodeResp {
  int32_t status = 0;
  uint64_t size = 0;
};

}  // namespace linefs::core

#endif  // SRC_CORE_MESSAGES_H_
