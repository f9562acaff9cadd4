#include "src/core/libfs.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/core/cluster.h"
#include "src/core/nicfs.h"
#include "src/core/sharedfs.h"

namespace linefs::core {

namespace {

// Adaptive read route: reads of at least 64 KB prefer the NIC; the host and
// NIC cost models cross near 57 KB, so 16 KB IOs stay on the host.
constexpr uint64_t kReadNicThreshold = 64ULL << 10;

// Splits "/a/b/c" into components.
std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : path) {
    if (c == '/') {
      if (!current.empty()) {
        parts.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    parts.push_back(std::move(current));
  }
  return parts;
}

// Unlocks the mutation critical section on scope exit (incl. co_return paths).
// Non-aggregate on purpose: GCC 12's coroutine frame lowering miscompiles
// brace-initialised aggregates ("array used as initializer").
class MutationGuard {
 public:
  explicit MutationGuard(LibFs* fs) : fs_(fs) {}
  ~MutationGuard() { fs_->EndMutation(); }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;

 private:
  LibFs* fs_;
};

}  // namespace

LibFs::LibFs(Cluster* cluster, int node_id, int client_id)
    : cluster_(cluster), node_id_(node_id), client_id_(client_id) {
  obs::MetricScope scope(&cluster->metrics(), "libfs." + std::to_string(client_id));
  metrics_.ops = scope.CounterAt("ops");
  metrics_.opens = scope.CounterAt("opens");
  metrics_.fsyncs = scope.CounterAt("fsyncs");
  metrics_.bytes_written = scope.CounterAt("bytes_written");
  metrics_.bytes_read = scope.CounterAt("bytes_read");
  metrics_.log_stall_waits = scope.CounterAt("log_stall_waits");
  metrics_.reads_nic_routed = scope.CounterAt("reads_nic_routed");
  metrics_.fsync_latency =
      cluster->metrics().GetTimeSeries("libfs.fsync_latency", obs::SeriesKind::kSampled);
}

LibFs::Stats LibFs::stats() const {
  Stats s;
  s.ops = metrics_.ops->value();
  s.opens = metrics_.opens->value();
  s.fsyncs = metrics_.fsyncs->value();
  s.bytes_written = metrics_.bytes_written->value();
  s.bytes_read = metrics_.bytes_read->value();
  s.log_stall_waits = metrics_.log_stall_waits->value();
  s.reads_nic_routed = metrics_.reads_nic_routed->value();
  return s;
}

void LibFs::Attach() {
  node_ = &cluster_->dfs_node(node_id_);
  config_ = &cluster_->config();
  engine_ = cluster_->engine();
  trace_ = &cluster_->trace();
  trace_component_ = "libfs." + std::to_string(client_id_);
  nicfs_ = cluster_->nicfs(node_id_);
  sharedfs_ = cluster_->sharedfs(node_id_);
  log_ = &node_->client_log(client_id_);
  space_cv_ = std::make_unique<sim::Condition>(engine_);
  op_mu_ = std::make_unique<sim::Mutex>(engine_);

  // Disjoint per-client inode ranges: no allocation round trip on create.
  uint64_t range = (config_->inode_count - 2) /
                   static_cast<uint64_t>(std::max(config_->max_clients, 1));
  next_inum_ = 2 + static_cast<uint64_t>(client_id_) * range;
  inum_range_start_ = next_inum_;
  inum_range_end_ = next_inum_ + range;

  auto on_published = [this](uint64_t upto) { index_.DropPublished(upto); };
  auto on_reclaim = [this](uint64_t upto) { space_cv_->NotifyAll(); };
  if (config_->IsLineFs()) {
    NicFs::ClientHooks hooks;
    hooks.on_published = on_published;
    hooks.on_reclaim = on_reclaim;
    nicfs_->RegisterClient(client_id_, std::move(hooks));
    nicfs_->leases().RegisterRevokeHandler(
        static_cast<uint32_t>(client_id_),
        [this](fslib::InodeNum inum) { return HandleLeaseRevoke(inum); });
  } else {
    SharedFs::ClientHooks hooks;
    hooks.on_published = on_published;
    hooks.on_reclaim = on_reclaim;
    sharedfs_->RegisterClient(client_id_, std::move(hooks));
    sharedfs_->leases().RegisterRevokeHandler(
        static_cast<uint32_t>(client_id_),
        [this](fslib::InodeNum inum) { return HandleLeaseRevoke(inum); });
  }
  if (cluster_->shards().sharded()) {
    // Sharded namespace: any node's arbiter may grant this client a lease,
    // so every arbiter needs the revoke path back to this process. Client
    // ids are globally unique, so cross-registration cannot collide.
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      if (n == node_id_) {
        continue;
      }
      if (LeaseManager* lm = cluster_->arbiter(n)) {
        lm->RegisterRevokeHandler(
            static_cast<uint32_t>(client_id_),
            [this](fslib::InodeNum inum) { return HandleLeaseRevoke(inum); });
      }
    }
  }
}

sim::Task<> LibFs::HandleLeaseRevoke(fslib::InodeNum inum) {
  // Revocation callback crosses from the arbiter to this process.
  co_await engine_->SleepFor(config_->IsLineFs() ? config_->node_params.nic.pcie_latency
                                                 : 5 * sim::kMicrosecond);
  // Wait for any in-flight mutation (it appended entries under this lease),
  // then invalidate the cache so the next op re-acquires.
  co_await op_mu_->Lock();
  write_leases_.erase(inum);
  ++revoke_counts_[inum];  // Invalidates any in-flight grant response.
  uint64_t upto = log_->tail();
  op_mu_->Unlock();
  co_await FlushForHandoff(upto);
}

sim::Task<Status> LibFs::BeginMutation(fslib::InodeNum a, fslib::InodeNum b) {
  for (int round = 0; round < 64; ++round) {
    Status st = co_await EnsureLease(a, /*write=*/true);
    if (!st.ok()) {
      co_return st;
    }
    if (b != fslib::kInvalidInode) {
      st = co_await EnsureLease(b, /*write=*/true);
      if (!st.ok()) {
        co_return st;
      }
    }
    co_await op_mu_->Lock();
    // Re-check under the lock: a revocation may have raced with acquisition.
    auto held = [this](fslib::InodeNum inum) {
      auto it = write_leases_.find(inum);
      return it != write_leases_.end() && it->second > engine_->Now();
    };
    if (held(a) && (b == fslib::kInvalidInode || held(b))) {
      co_return Status::Ok();
    }
    op_mu_->Unlock();
  }
  co_return Status::Error(ErrorCode::kBusy, "mutation could not stabilise leases");
}

sim::Task<> LibFs::FlushForHandoff(uint64_t upto) {
  // Handoff flushes root their own trace, like an fsync would.
  obs::Span root(trace_, trace_component_, "handoff_flush", node_id_, client_id_, 0,
                 obs::TraceContext{});
  obs::TraceContext ctx = root.context();
  // 1) Make everything durable/replicated (the fsync path also forces the
  // urgent fetch of the partial tail chunk in LineFS).
  if (config_->IsLineFs()) {
    rdma::Initiator init;
    init.cpu = &node_->hw().host_cpu();
    init.priority = sim::Priority::kNormal;
    init.account = node_->hw().acct_fs();
    Result<Ack> ack = co_await cluster_->rpc().Call<FsyncReq, Ack>(
        init, rdma::MemAddr{node_id_, rdma::Space::kHostPm}, cluster_->service_endpoint(node_id_),
        rdma::Channel::kLowLat, kRpcFsync,
        FsyncReq{static_cast<uint32_t>(client_id_), upto, ctx},
        /*timeout=*/10 * sim::kSecond, ctx);
    (void)ack;
  } else {
    Status st = co_await sharedfs_->Fsync(client_id_, upto, ctx);
    (void)st;
  }
  // 2) Wait for local publication to cover the handoff point, so validation
  // of this client's published entries still sees it as the lease holder.
  while (true) {
    uint64_t published = config_->IsLineFs() ? nicfs_->published_upto(client_id_)
                                             : sharedfs_->published_upto(client_id_);
    if (published >= upto) {
      break;
    }
    co_await engine_->SleepFor(200 * sim::kMicrosecond);
  }
}

fslib::InodeNum LibFs::AllocInum(fslib::InodeNum parent) {
  const shard::ShardMap& shards = cluster_->shards();
  if (shards.sharded() && shards.placement() == shard::Placement::kDir) {
    // kDir placement: allocate from the parent's residue class (stride =
    // num_shards inside this client's private range) so the child lands on
    // the parent's shard and same-directory metadata ops stay single-shard.
    // Every allocation under kDir goes through a residue cursor; the classes
    // are disjoint so cursors never collide.
    uint64_t stride = static_cast<uint64_t>(shards.num_shards());
    uint32_t residue = shards.DesiredResidue(parent);
    auto [it, fresh] = residue_cursor_.try_emplace(residue, 0);
    if (fresh) {
      it->second = inum_range_start_ +
                   (residue + stride - inum_range_start_ % stride) % stride;
    }
    if (it->second >= inum_range_end_) {
      std::fprintf(stderr, "libfs: client %d exhausted residue class %u of its inode range\n",
                   client_id_, residue);
      std::abort();
    }
    fslib::InodeNum inum = it->second;
    it->second += stride;
    return inum;
  }
  if (next_inum_ >= inum_range_end_) {
    std::fprintf(stderr, "libfs: client %d exhausted its inode range\n", client_id_);
    std::abort();
  }
  return next_inum_++;
}

Status LibFs::CheckServiceUp() const {
  if (config_->IsLineFs() && !cluster_->service_alive(node_id_)) {
    return Status::Error(ErrorCode::kUnavailable, "local NICFS is down");
  }
  return Status::Ok();
}

sim::Task<Status> LibFs::ChargeCpu(uint64_t cycles) {
  hw::Node& hw = node_->hw();
  co_await hw.host_cpu().RunCycles(cycles, sim::Priority::kNormal, hw.acct_fs());
  co_return Status::Ok();
}

// --- Path resolution -------------------------------------------------------------

Result<fslib::InodeNum> LibFs::LookupChild(fslib::InodeNum dir, const std::string& name) {
  // 1) Pending namespace state in the private log.
  auto [state, inum] = index_.LookupName(dir, name);
  if (state == fslib::PrivateIndex::NameState::kExists) {
    return inum;
  }
  if (state == fslib::PrivateIndex::NameState::kDeleted) {
    return Status::Error(ErrorCode::kNotFound, "deleted (pending): " + name);
  }
  // 2) Public area.
  return node_->fs().LookupChild(dir, name);
}

sim::Task<Result<fslib::InodeNum>> LibFs::ResolvePath(const std::string& path) {
  std::vector<std::string> parts = SplitPath(path);
  co_await ChargeCpu(config_->fs_costs.read_index_cycles / 2 +
                     600 * (parts.size() + 1));
  fslib::InodeNum current = fslib::kRootInode;
  for (const std::string& part : parts) {
    Result<fslib::InodeNum> child = LookupChild(current, part);
    if (!child.ok()) {
      co_return child.status();
    }
    current = *child;
  }
  co_return current;
}

sim::Task<Result<std::pair<fslib::InodeNum, std::string>>> LibFs::ResolveParent(
    const std::string& path) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    co_return Status::Error(ErrorCode::kInvalid, "empty path");
  }
  if (parts.back().size() > fslib::kDirentNameMax) {
    co_return Status::Error(ErrorCode::kInvalid, "name too long");
  }
  co_await ChargeCpu(600 * parts.size());
  fslib::InodeNum current = fslib::kRootInode;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    Result<fslib::InodeNum> child = LookupChild(current, parts[i]);
    if (!child.ok()) {
      co_return child.status();
    }
    current = *child;
  }
  co_return std::pair<fslib::InodeNum, std::string>{current, parts.back()};
}

// --- Leases ------------------------------------------------------------------------

sim::Task<Status> LibFs::EnsureLease(fslib::InodeNum inum, bool write) {
  auto it = write_leases_.find(inum);
  if (it != write_leases_.end() && it->second > engine_->Now()) {
    co_return Status::Ok();
  }
  // Budget generously: a conflicting holder may need to flush (publish) its
  // pending updates before the lease can move (§3.4 revocation).
  // Sharded namespace: the grant comes from the shard's arbiter, which may
  // root at a remote node. Unsharded, this is always the local node (LineFS:
  // the local NIC; Assise: the in-process SharedFS).
  int arbiter_node = cluster_->ArbiterNodeFor(inum, node_id_);
  for (int attempt = 0; attempt < 8000; ++attempt) {
    uint64_t revokes_before = revoke_counts_[inum];
    if (config_->IsLineFs() || arbiter_node != node_id_) {
      rdma::Initiator init;
      init.cpu = &node_->hw().host_cpu();
      init.priority = sim::Priority::kNormal;
      init.account = node_->hw().acct_fs();
      Result<LeaseResp> resp = co_await cluster_->rpc().Call<LeaseReq, LeaseResp>(
          init, rdma::MemAddr{node_id_, rdma::Space::kHostPm},
          cluster_->service_endpoint(arbiter_node), rdma::Channel::kLowLat, kRpcLease,
          LeaseReq{static_cast<uint32_t>(client_id_), inum, write ? uint8_t{1} : uint8_t{0}});
      if (resp.ok() && resp->status == 0) {
        if (revoke_counts_[inum] != revokes_before) {
          // A revocation raced with this grant: the grant is already stale.
          co_await engine_->SleepFor(100 * sim::kMicrosecond);
          continue;
        }
        write_leases_[inum] = static_cast<sim::Time>(resp->expires_at);
        co_return Status::Ok();
      }
      if (resp.ok() && resp->status != static_cast<int32_t>(ErrorCode::kBusy)) {
        co_return Status::Error(static_cast<ErrorCode>(resp->status), "lease denied");
      }
      if (!resp.ok()) {
        co_return resp.status();
      }
    } else {
      co_await ChargeCpu(1500);  // Host-local arbitration.
      Result<sim::Time> expiry =
          sharedfs_->leases().TryAcquire(static_cast<uint32_t>(client_id_), inum, write);
      if (expiry.ok()) {
        engine_->Spawn(sharedfs_->leases().PersistGrant(), "lease.persist");
        write_leases_[inum] = *expiry;
        co_return Status::Ok();
      }
      if (expiry.code() != ErrorCode::kBusy) {
        co_return expiry.status();
      }
    }
    co_await engine_->SleepFor(100 * sim::kMicrosecond);  // Contended: back off.
  }
  co_return Status::Error(ErrorCode::kBusy, "lease acquisition timed out");
}

// --- Log append ----------------------------------------------------------------------

sim::Task<Status> LibFs::AppendEntry(fslib::LogEntryHeader header,
                                     std::span<const uint8_t> payload) {
  hw::Node& hw = node_->hw();
  // Head-of-line blocking: wait for publication+replication to reclaim space.
  while (!log_->HasSpaceFor(header.payload_len)) {
    metrics_.log_stall_waits->Increment();
    KickService();
    co_await space_cv_->Wait();
  }
  uint64_t cycles = config_->fs_costs.libfs_op_cycles +
                    static_cast<uint64_t>(config_->fs_costs.libfs_append_cycles_per_byte *
                                          static_cast<double>(header.payload_len));
  co_await ChargeCpu(cycles);
  uint64_t bytes = fslib::ParsedEntry::AlignedSize(header.payload_len);
  co_await hw.pm_write().Transfer(bytes);
  Result<uint64_t> pos = log_->Append(header, payload);
  if (!pos.ok()) {
    co_return pos.status();
  }

  // Maintain the private index.
  const fslib::LogEntryHeader& h = header;  // header.seq was assigned by Append;
  uint64_t seq = log_->next_seq() - 1;
  std::string name(reinterpret_cast<const char*>(payload.data()),
                   h.type == fslib::LogOpType::kData ? 0 : payload.size());
  switch (h.type) {
    case fslib::LogOpType::kData:
      index_.OnData(h.inum, h.offset, h.payload_len, seq, *pos);
      break;
    case fslib::LogOpType::kCreate:
      index_.OnCreate(h.parent, name, h.inum, fslib::FileType::kRegular, *pos);
      break;
    case fslib::LogOpType::kMkdir:
      index_.OnCreate(h.parent, name, h.inum, fslib::FileType::kDirectory, *pos);
      break;
    case fslib::LogOpType::kUnlink:
    case fslib::LogOpType::kRmdir:
      index_.OnUnlink(h.parent, name, h.inum, *pos);
      break;
    case fslib::LogOpType::kRename: {
      size_t sep = name.find('\0');
      index_.OnRename(h.parent, name.substr(0, sep), h.rename_dst_parent(),
                      name.substr(sep + 1), h.inum, *pos);
      break;
    }
    case fslib::LogOpType::kTruncate:
      index_.OnTruncate(h.inum, h.offset, *pos);
      break;
    default:
      break;
  }

  bytes_since_kick_ += bytes;
  if (bytes_since_kick_ >= config_->chunk_size) {
    bytes_since_kick_ = 0;
    KickService();
  }
  co_return Status::Ok();
}

void LibFs::KickService() {
  if (config_->IsLineFs()) {
    // Asynchronous RPC: LibFS does not wait (§3.3.1). Each kick roots a
    // background-publish trace that the pipeline stages parent into.
    engine_->Spawn(
        [](LibFs* self) -> sim::Task<> {
          obs::Span root(self->trace_, self->trace_component_, "publish_kick", self->node_id_,
                         self->client_id_, 0, obs::TraceContext{});
          obs::TraceContext ctx = root.context();
          rdma::Initiator init;
          init.cpu = &self->node_->hw().host_cpu();
          init.priority = sim::Priority::kNormal;
          init.account = self->node_->hw().acct_fs();
          Result<Ack> ignored = co_await self->cluster_->rpc().Call<StartPipelineReq, Ack>(
              init, rdma::MemAddr{self->node_id_, rdma::Space::kHostPm},
              self->cluster_->service_endpoint(self->node_id_), rdma::Channel::kHighTput,
              kRpcStartPipeline,
              StartPipelineReq{static_cast<uint32_t>(self->client_id_), ctx},
              /*timeout=*/10 * sim::kMillisecond, ctx);
          (void)ignored;
        }(this),
        "libfs.publish_kick");
  } else {
    sharedfs_->NotifyChunkReady(client_id_);
  }
}

// --- Open / close -----------------------------------------------------------------------

sim::Task<Result<int>> LibFs::Open(const std::string& path, uint32_t flags, uint16_t mode) {
  metrics_.ops->Increment();
  metrics_.opens->Increment();
  if (Status up = CheckServiceUp(); !up.ok()) {
    co_return up;
  }
  Result<std::pair<fslib::InodeNum, std::string>> parent = co_await ResolveParent(path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  auto [dir, name] = *parent;
  Result<fslib::InodeNum> existing = LookupChild(dir, name);

  fslib::InodeNum inum;
  if (existing.ok()) {
    inum = *existing;
    bool created_pending = index_.PendingType(inum).has_value();
    if (!created_pending) {
      // Permission check + read-only mapping of public pages (§3.6). In LineFS
      // this crosses PCIe to NICFS and on to the kernel worker — the cost that
      // hurts open-heavy Varmail; in Assise it is a host-local call.
      if (config_->IsLineFs()) {
        rdma::Initiator init;
        init.cpu = &node_->hw().host_cpu();
        init.priority = sim::Priority::kNormal;
        init.account = node_->hw().acct_fs();
        Result<Ack> ack = co_await cluster_->rpc().Call<OpenReq, Ack>(
            init, rdma::MemAddr{node_id_, rdma::Space::kHostPm},
            cluster_->service_endpoint(node_id_), rdma::Channel::kLowLat, kRpcOpen,
            OpenReq{static_cast<uint32_t>(client_id_), inum, flags});
        if (!ack.ok()) {
          co_return ack.status();
        }
        if (ack->status != 0) {
          co_return Status::Error(static_cast<ErrorCode>(ack->status), "open denied");
        }
      } else {
        Status st = co_await sharedfs_->OpenCheck(client_id_, inum);
        if (!st.ok()) {
          co_return st;
        }
      }
    }
    if ((flags & fslib::kOpenTrunc) != 0) {
      Status lease = co_await BeginMutation(inum);
      if (!lease.ok()) {
        co_return lease;
      }
      MutationGuard guard(this);
      fslib::LogEntryHeader h;
      h.type = fslib::LogOpType::kTruncate;
      h.inum = inum;
      h.offset = 0;
      Status st = co_await AppendEntry(h, {});
      if (!st.ok()) {
        co_return st;
      }
    }
  } else if ((flags & fslib::kOpenCreate) != 0) {
    Status lease = co_await BeginMutation(dir);
    if (!lease.ok()) {
      co_return lease;
    }
    MutationGuard guard(this);
    inum = AllocInum(dir);
    fslib::LogEntryHeader h;
    h.type = fslib::LogOpType::kCreate;
    h.inum = inum;
    h.parent = dir;
    h.mode = mode;
    h.ftype = fslib::FileType::kRegular;
    h.payload_len = static_cast<uint32_t>(name.size());
    Status st = co_await AppendEntry(
        h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(name.data()), name.size()));
    if (!st.ok()) {
      co_return st;
    }
  } else {
    co_return existing.status();
  }

  // Allocate the lowest free descriptor.
  int fd = -1;
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (!fds_[i].open) {
      fd = static_cast<int>(i);
      break;
    }
  }
  if (fd < 0) {
    fd = static_cast<int>(fds_.size());
    fds_.emplace_back();
  }
  fds_[fd].inum = inum;
  fds_[fd].flags = flags;
  fds_[fd].open = true;
  fds_[fd].cursor = (flags & fslib::kOpenAppend) != 0 ? EffectiveSize(inum) : 0;
  co_return fd;
}

sim::Task<Status> LibFs::Close(int fd) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "close");
  }
  fds_[fd].open = false;
  co_await ChargeCpu(400);
  co_return Status::Ok();
}

uint64_t LibFs::EffectiveSize(fslib::InodeNum inum) {
  auto [pending, exact] = index_.PendingSizeInfo(inum);
  Result<fslib::FileAttr> attr = node_->fs().GetAttr(inum);
  uint64_t published = attr.ok() ? attr->size : 0;
  if (!pending.has_value()) {
    return published;
  }
  // A pending create/truncate fixes the size exactly (later pending writes
  // raise it again via OnData); plain writes only ever extend.
  return exact ? *pending : std::max(published, *pending);
}

// --- Write ---------------------------------------------------------------------------------

sim::Task<Result<uint64_t>> LibFs::WriteInternal(fslib::InodeNum inum,
                                                 std::span<const uint8_t> data, uint64_t len,
                                                 uint64_t offset, uint8_t seed) {
  if (Status up = CheckServiceUp(); !up.ok()) {
    co_return up;
  }
  Status lease = co_await BeginMutation(inum);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  bool materialize = config_->materialize_data;
  // Generated payloads repeat every 251 bytes: byte `pos` of the file is
  // seed + (pos * 131) % 251, copied out of one tile in slices.
  std::vector<uint8_t> generated;
  std::array<uint8_t, 251> tile{};
  if (materialize && data.empty()) {
    for (uint64_t j = 0; j < tile.size(); ++j) {
      tile[j] = static_cast<uint8_t>(seed + (j * 131) % 251);
    }
  }
  uint64_t done = 0;
  while (done < len) {
    uint64_t n = std::min(len - done, kMaxEntryPayload);
    fslib::LogEntryHeader h;
    h.type = fslib::LogOpType::kData;
    h.inum = inum;
    h.offset = offset + done;
    h.payload_len = static_cast<uint32_t>(n);
    std::span<const uint8_t> payload;
    if (materialize) {
      if (!data.empty()) {
        payload = data.subspan(done, n);
      } else {
        generated.resize(n);
        uint64_t phase = (offset + done) % tile.size();
        for (uint64_t i = 0; i < n;) {
          uint64_t slice = std::min(n - i, tile.size() - phase);
          std::memcpy(generated.data() + i, tile.data() + phase, slice);
          i += slice;
          phase = 0;
        }
        payload = generated;
      }
    }
    Status st = co_await AppendEntry(h, payload);
    if (!st.ok()) {
      co_return st;
    }
    done += n;
  }
  metrics_.bytes_written->Add(len);
  co_return len;
}

sim::Task<Result<uint64_t>> LibFs::Write(int fd, std::span<const uint8_t> data) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "write");
  }
  Result<uint64_t> n =
      co_await WriteInternal(fds_[fd].inum, data, data.size(), fds_[fd].cursor, 0);
  if (n.ok()) {
    fds_[fd].cursor += *n;
  }
  co_return n;
}

sim::Task<Result<uint64_t>> LibFs::Pwrite(int fd, std::span<const uint8_t> data,
                                          uint64_t offset) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "pwrite");
  }
  co_return co_await WriteInternal(fds_[fd].inum, data, data.size(), offset, 0);
}

sim::Task<Result<uint64_t>> LibFs::PwriteGen(int fd, uint64_t len, uint64_t offset,
                                             uint8_t seed) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "pwritegen");
  }
  co_return co_await WriteInternal(fds_[fd].inum, {}, len, offset, seed);
}

// --- Read -----------------------------------------------------------------------------------

sim::Task<Result<uint64_t>> LibFs::ReadInternal(fslib::InodeNum inum, std::span<uint8_t> out,
                                                uint64_t offset) {
  hw::Node& hw = node_->hw();
  uint64_t size = EffectiveSize(inum);
  if (offset >= size) {
    co_return static_cast<uint64_t>(0);
  }
  uint64_t len = std::min<uint64_t>(out.size(), size - offset);

  // Route selection (DfsConfig::read_path): host CPU copy vs NIC-forwarded
  // RPC. The NIC route frees the host CPU from index walk + per-byte copy at
  // the price of a fixed RPC overhead and two PCIe crossings; "adaptive"
  // takes it only for large transfers on an unloaded NIC.
  bool nic_route = false;
  if (config_->read_path != "host" && config_->IsLineFs() && nicfs_ != nullptr &&
      cluster_->service_alive(node_id_)) {
    nic_route = config_->read_path == "nic_rpc" ||
                (len >= kReadNicThreshold &&
                 nicfs_->nic_load() < config_->read_nic_load_max);
  }
  if (nic_route) {
    // Host side only submits the RPC and consumes the completion.
    co_await ChargeCpu(config_->fs_costs.libfs_op_cycles);
    rdma::Initiator init;
    init.cpu = &node_->hw().host_cpu();
    init.priority = sim::Priority::kNormal;
    init.account = node_->hw().acct_fs();
    Result<Ack> ack = co_await cluster_->rpc().Call<ReadReq, Ack>(
        init, rdma::MemAddr{node_id_, rdma::Space::kHostPm}, cluster_->service_endpoint(node_id_),
        rdma::Channel::kLowLat, kRpcRead,
        ReadReq{static_cast<uint32_t>(client_id_), inum, offset, len},
        /*timeout=*/10 * sim::kSecond);
    if (ack.ok() && ack->status == 0) {
      metrics_.reads_nic_routed->Increment();
    } else {
      nic_route = false;  // NIC unreachable mid-read: fall back to the host route.
    }
  }
  if (!nic_route) {
    uint64_t cycles = config_->fs_costs.read_index_cycles +
                      static_cast<uint64_t>(config_->fs_costs.memcpy_cycles_per_byte *
                                            static_cast<double>(len));
    co_await ChargeCpu(cycles);
    co_await hw.pm_read().Transfer(len);
  }

  if (config_->materialize_data) {
    // Base from the public area, then overlay pending log writes (oldest to
    // newest) — the two-step read of §3.2.
    std::span<uint8_t> window = out.subspan(0, len);
    Result<uint64_t> base = node_->fs().ReadData(inum, offset, window);
    if (!base.ok()) {
      std::fill(window.begin(), window.end(), 0);
    } else if (*base < len) {
      std::fill(window.begin() + *base, window.end(), 0);
    }
    for (const fslib::PrivateIndex::Overlay& o : index_.LookupRange(inum, offset, len)) {
      uint64_t start = std::max<uint64_t>(o.file_offset, offset);
      uint64_t end = std::min<uint64_t>(o.file_offset + o.len, offset + len);
      if (end <= start) {
        continue;
      }
      uint64_t payload_off = log_->PayloadPhys(o.logical_pos) + (start - o.file_offset);
      node_->hw().pm().Read(payload_off, window.data() + (start - offset), end - start);
    }
  }
  metrics_.bytes_read->Add(len);
  co_return len;
}

sim::Task<Result<uint64_t>> LibFs::Read(int fd, std::span<uint8_t> out) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "read");
  }
  Result<uint64_t> n = co_await ReadInternal(fds_[fd].inum, out, fds_[fd].cursor);
  if (n.ok()) {
    fds_[fd].cursor += *n;
  }
  co_return n;
}

sim::Task<Result<uint64_t>> LibFs::Pread(int fd, std::span<uint8_t> out, uint64_t offset) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "pread");
  }
  co_return co_await ReadInternal(fds_[fd].inum, out, offset);
}

// --- fsync ----------------------------------------------------------------------------------

sim::Task<Status> LibFs::Fsync(int fd) {
  metrics_.ops->Increment();
  metrics_.fsyncs->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "fsync");
  }
  if (Status up = CheckServiceUp(); !up.ok()) {
    co_return up;
  }
  uint64_t upto = log_->tail();
  sim::Time fsync_start = engine_->Now();
  co_await ChargeCpu(config_->fs_costs.libfs_op_cycles);
  // Root of this operation's causal trace: every span the fsync touches —
  // NIC pipeline stages, replica copies, acks — parents into this one.
  obs::Span root(trace_, trace_component_, "fsync", node_id_, client_id_, 0,
                 obs::TraceContext{});
  obs::TraceContext ctx = root.context();
  if (config_->IsLineFs()) {
    rdma::Initiator init;
    init.cpu = &node_->hw().host_cpu();
    init.priority = sim::Priority::kNormal;
    init.account = node_->hw().acct_fs();
    Result<Ack> ack = co_await cluster_->rpc().Call<FsyncReq, Ack>(
        init, rdma::MemAddr{node_id_, rdma::Space::kHostPm}, cluster_->service_endpoint(node_id_),
        rdma::Channel::kLowLat, kRpcFsync,
        FsyncReq{static_cast<uint32_t>(client_id_), upto, ctx},
        /*timeout=*/10 * sim::kSecond, ctx);
    if (!ack.ok()) {
      co_return ack.status();
    }
    if (ack->status != 0) {
      co_return Status::Error(static_cast<ErrorCode>(ack->status), "fsync failed");
    }
    metrics_.fsync_latency->Record(engine_->Now(), engine_->Now() - fsync_start);
    co_return Status::Ok();
  }
  Status st = co_await sharedfs_->Fsync(client_id_, upto, ctx);
  if (st.ok()) {
    metrics_.fsync_latency->Record(engine_->Now(), engine_->Now() - fsync_start);
  }
  co_return st;
}

// --- Namespace ops ----------------------------------------------------------------------------

sim::Task<Status> LibFs::Mkdir(const std::string& path, uint16_t mode) {
  metrics_.ops->Increment();
  Result<std::pair<fslib::InodeNum, std::string>> parent = co_await ResolveParent(path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  auto [dir, name] = *parent;
  if (LookupChild(dir, name).ok()) {
    co_return Status::Error(ErrorCode::kExists, path);
  }
  Status lease = co_await BeginMutation(dir);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  fslib::LogEntryHeader h;
  h.type = fslib::LogOpType::kMkdir;
  h.inum = AllocInum(dir);
  h.parent = dir;
  h.mode = mode;
  h.ftype = fslib::FileType::kDirectory;
  h.payload_len = static_cast<uint32_t>(name.size());
  co_return co_await AppendEntry(
      h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(name.data()), name.size()));
}

sim::Task<Status> LibFs::Rmdir(const std::string& path) {
  metrics_.ops->Increment();
  if (Status up = CheckServiceUp(); !up.ok()) {
    co_return up;
  }
  Result<std::pair<fslib::InodeNum, std::string>> parent = co_await ResolveParent(path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  auto [dir, name] = *parent;
  Result<fslib::InodeNum> target = LookupChild(dir, name);
  if (!target.ok()) {
    co_return target.status();
  }
  // Must be a directory and must be empty (published entries + pending names).
  Result<fslib::FileAttr> attr = co_await Stat(path);
  if (attr.ok() && attr->type != fslib::FileType::kDirectory) {
    co_return Status::Error(ErrorCode::kNotDir, path);
  }
  Result<std::vector<std::string>> entries = co_await ReadDir(path);
  if (entries.ok() && !entries->empty()) {
    co_return Status::Error(ErrorCode::kNotEmpty, path);
  }
  Status lease = co_await BeginMutation(dir);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  fslib::LogEntryHeader h;
  h.type = fslib::LogOpType::kRmdir;
  h.inum = *target;
  h.parent = dir;
  h.payload_len = static_cast<uint32_t>(name.size());
  co_return co_await AppendEntry(
      h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(name.data()), name.size()));
}

sim::Task<Status> LibFs::Unlink(const std::string& path) {
  metrics_.ops->Increment();
  Result<std::pair<fslib::InodeNum, std::string>> parent = co_await ResolveParent(path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  auto [dir, name] = *parent;
  Result<fslib::InodeNum> target = LookupChild(dir, name);
  if (!target.ok()) {
    co_return target.status();
  }
  Status lease = co_await BeginMutation(dir);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  fslib::LogEntryHeader h;
  h.type = fslib::LogOpType::kUnlink;
  h.inum = *target;
  h.parent = dir;
  h.payload_len = static_cast<uint32_t>(name.size());
  co_return co_await AppendEntry(
      h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(name.data()), name.size()));
}

sim::Task<Status> LibFs::Rename(const std::string& from, const std::string& to) {
  metrics_.ops->Increment();
  Result<std::pair<fslib::InodeNum, std::string>> src = co_await ResolveParent(from);
  if (!src.ok()) {
    co_return src.status();
  }
  Result<std::pair<fslib::InodeNum, std::string>> dst = co_await ResolveParent(to);
  if (!dst.ok()) {
    co_return dst.status();
  }
  Result<fslib::InodeNum> moved = LookupChild(src->first, src->second);
  if (!moved.ok()) {
    co_return moved.status();
  }
  Status lease = co_await BeginMutation(
      src->first, dst->first != src->first ? dst->first : fslib::kInvalidInode);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  // When the two parent directories live on different shards, serialize the
  // move against other cross-shard operations via two-phase commit between
  // the shard arbiters. The log append below — the atomic namespace mutation
  // — only happens once the transaction committed.
  Status txn = co_await CrossShardPrepare(src->first, dst->first);
  if (!txn.ok()) {
    co_return txn;
  }
  fslib::LogEntryHeader h;
  h.type = fslib::LogOpType::kRename;
  h.inum = *moved;
  h.parent = src->first;
  h.offset = dst->first;  // Destination parent.
  std::string payload = src->second;
  payload.push_back('\0');
  payload += dst->second;
  h.payload_len = static_cast<uint32_t>(payload.size());
  co_return co_await AppendEntry(
      h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                  payload.size()));
}

sim::Task<Status> LibFs::CrossShardPrepare(fslib::InodeNum src_dir, fslib::InodeNum dst_dir) {
  const shard::ShardMap& shards = cluster_->shards();
  if (!shards.sharded() || shards.ShardOf(src_dir) == shards.ShardOf(dst_dir)) {
    co_return Status::Ok();
  }
  shard::TxnService* txn = cluster_->txn(node_id_);
  if (txn == nullptr) {
    co_return Status::Ok();
  }
  // The local node's transaction service coordinates; the two shard arbiters
  // participate with intent locks on the parent directories. A vote-abort is
  // a transient lock conflict with another cross-shard transaction — back
  // off and retry.
  std::vector<int> participants = {shards.ArbiterFor(src_dir), shards.ArbiterFor(dst_dir)};
  std::vector<uint64_t> locks = {src_dir, dst_dir};
  for (int attempt = 0; attempt < 16; ++attempt) {
    Result<bool> committed = co_await txn->Run(
        shard::TxnOp::kRename, static_cast<uint32_t>(client_id_), participants, locks);
    if (!committed.ok()) {
      co_return committed.status();
    }
    if (*committed) {
      co_return Status::Ok();
    }
    co_await engine_->SleepFor(200 * sim::kMicrosecond);
  }
  co_return Status::Error(ErrorCode::kBusy, "cross-shard rename kept losing intent locks");
}

sim::Task<Result<fslib::FileAttr>> LibFs::Stat(const std::string& path) {
  metrics_.ops->Increment();
  Result<fslib::InodeNum> inum = co_await ResolvePath(path);
  if (!inum.ok()) {
    co_return inum.status();
  }
  fslib::FileAttr attr;
  Result<fslib::FileAttr> pub = node_->fs().GetAttr(*inum);
  if (pub.ok()) {
    attr = *pub;
  } else {
    attr.inum = *inum;
    std::optional<fslib::FileType> type = index_.PendingType(*inum);
    if (!type.has_value()) {
      co_return pub.status();
    }
    attr.type = *type;
    attr.nlink = 1;
  }
  attr.size = EffectiveSize(*inum);
  co_return attr;
}

sim::Task<Result<fslib::FileAttr>> LibFs::Fstat(int fd) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "fstat");
  }
  co_await ChargeCpu(config_->fs_costs.read_index_cycles / 2);
  fslib::InodeNum inum = fds_[fd].inum;
  fslib::FileAttr attr;
  Result<fslib::FileAttr> pub = node_->fs().GetAttr(inum);
  if (pub.ok()) {
    attr = *pub;
  } else {
    std::optional<fslib::FileType> type = index_.PendingType(inum);
    if (!type.has_value()) {
      co_return pub.status();
    }
    attr.inum = inum;
    attr.type = *type;
    attr.nlink = 1;
  }
  attr.size = EffectiveSize(inum);
  co_return attr;
}

sim::Task<Status> LibFs::Access(const std::string& path, uint16_t perm) {
  metrics_.ops->Increment();
  Result<fslib::FileAttr> attr = co_await Stat(path);
  if (!attr.ok()) {
    co_return attr.status();
  }
  if ((attr->mode & perm) != perm) {
    co_return Status::Error(ErrorCode::kPermission, path);
  }
  co_return Status::Ok();
}

sim::Task<Result<std::vector<std::string>>> LibFs::ReadDir(const std::string& path) {
  metrics_.ops->Increment();
  Result<fslib::InodeNum> dir = co_await ResolvePath(path);
  if (!dir.ok()) {
    co_return dir.status();
  }
  co_await ChargeCpu(config_->fs_costs.read_index_cycles);
  Result<std::vector<std::pair<std::string, fslib::InodeNum>>> pub =
      node_->fs().dirs().List(*dir);
  std::vector<std::string> names;
  if (pub.ok()) {
    for (auto& [name, inum] : *pub) {
      auto [state, pending_inum] = index_.LookupName(*dir, name);
      if (state != fslib::PrivateIndex::NameState::kDeleted) {
        names.push_back(name);
      }
    }
  }
  // Names created in the private log but not yet published.
  for (auto& [name, exists] : index_.PendingNames(*dir)) {
    if (exists && std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  co_return names;
}

sim::Task<Status> LibFs::Ftruncate(int fd, uint64_t size) {
  metrics_.ops->Increment();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    co_return Status::Error(ErrorCode::kBadFd, "ftruncate");
  }
  Status lease = co_await BeginMutation(fds_[fd].inum);
  if (!lease.ok()) {
    co_return lease;
  }
  MutationGuard guard(this);
  fslib::LogEntryHeader h;
  h.type = fslib::LogOpType::kTruncate;
  h.inum = fds_[fd].inum;
  h.offset = size;
  co_return co_await AppendEntry(h, {});
}

Status LibFs::Seek(int fd, uint64_t pos) {
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    return Status::Error(ErrorCode::kBadFd, "seek");
  }
  fds_[fd].cursor = pos;
  return Status::Ok();
}

}  // namespace linefs::core
