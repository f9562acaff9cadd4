#include "src/core/sharedfs.h"

#include <algorithm>
#include <set>

#include "src/core/cluster.h"
#include "src/repl/registry.h"

namespace linefs::core {

// Assise-BgRepl worker threads: 3 maximises background replication (§5.1).
constexpr int kBgReplThreads = 3;
// Hyperloop verb-chain refill period: under 1% of ops wait on a busy host (Table 3 p99.9).
constexpr uint64_t kHyperloopPrepostBatch = 128;

namespace {

// Host cores at the configured DFS priority; fsync-path work preempts.
rdma::Initiator HostCores(hw::Node& hw, sim::Priority fs_priority, bool urgent) {
  rdma::Initiator init;
  init.cpu = &hw.host_cpu();
  init.priority = urgent ? sim::Priority::kHigh : fs_priority;
  init.account = hw.acct_fs();
  init.polls = false;  // Busy polling is not viable for a multi-tenant host (§3.3.2).
  return init;
}

}  // namespace

SharedFs::SharedFs(Cluster* cluster, DfsNode* node, const DfsConfig* config)
    : FsService(cluster, node, config, "sharedfs", rdma::Space::kHostPm,
                HostCores(node->hw(), config->host_fs_priority, /*urgent=*/false)) {
  obs::MetricScope scope(&cluster->metrics(), component_);
  metrics_.chunks_digested = scope.CounterAt("chunks_digested");
  metrics_.bytes_digested = scope.CounterAt("bytes_digested");
  metrics_.chunks_replicated = scope.CounterAt("chunks_replicated");
  metrics_.bytes_replicated = scope.CounterAt("bytes_replicated");
  metrics_.preposts = scope.CounterAt("preposts");
  metrics_.replica_digest_failures = scope.CounterAt("replica_digest_failures");
}

SharedFs::Stats SharedFs::stats() const {
  Stats s;
  s.chunks_digested = metrics_.chunks_digested->value();
  s.bytes_digested = metrics_.bytes_digested->value();
  s.chunks_replicated = metrics_.chunks_replicated->value();
  s.bytes_replicated = metrics_.bytes_replicated->value();
  s.preposts = metrics_.preposts->value();
  return s;
}

rdma::Initiator SharedFs::HostInitiator(bool urgent) const {
  return HostCores(node_->hw(), config_->host_fs_priority, urgent);
}

void SharedFs::Start() {
  rdma::RpcEndpoint* ep = cluster_->rpc().CreateEndpoint(
      EndpointName(node_->id()), rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
      &node_->hw().host_cpu(), node_->hw().acct_fs(), /*has_low_lat_poller=*/false);
  ep->SetAlivePredicate([node = node_] { return node->hw().host_up(); });
  ep->SetDispatchPriority(config_->host_fs_priority);

  ep->Handle<ReplChunkMsg, Ack>(kRpcReplChunk, [this](ReplChunkMsg msg) -> sim::Task<Ack> {
    co_return co_await HandleReplRange(msg);
  });

  // Remote lease arbitration: with a sharded namespace a client whose inode
  // lives on another node's shard acquires from that node's SharedFS over
  // RPC. Unsharded clients keep the in-process fast path (LibFs::EnsureLease)
  // and never send this message.
  ep->Handle<LeaseReq, LeaseResp>(kRpcLease, [this](LeaseReq req) -> sim::Task<LeaseResp> {
    co_return co_await GrantLease(req, HostInitiator(/*urgent=*/false), 1500, "sharedfs.lease");
  });

  ep->Handle<HeartbeatMsg, Ack>(kRpcHeartbeat,
                                [](HeartbeatMsg) -> sim::Task<Ack> { co_return Ack{}; });
  ep->Handle<EpochUpdateMsg, Ack>(kRpcEpochUpdate, [this](EpochUpdateMsg msg) -> sim::Task<Ack> {
    node_->fs().SetEpoch(msg.epoch);
    co_return Ack{};
  });

  if (config_->mode == DfsMode::kAssiseBgRepl) {
    for (int i = 0; i < kBgReplThreads; ++i) {
      bg_queues_.push_back(
          std::make_unique<sim::Queue<std::pair<int, std::pair<uint64_t, uint64_t>>>>(engine_));
      engine_->Spawn(BgReplWorker(i), "sharedfs.bgrepl");
    }
  }
}

void SharedFs::Shutdown() {
  shutdown_ = true;
  for (auto& [client, state] : clients_) {
    state->digest_q.Close();
    state->progress.NotifyAll();
  }
  for (auto& [client, state] : replicas_) {
    state->digest_q.Close();
  }
  for (auto& q : bg_queues_) {
    q->Close();
  }
}

void SharedFs::RegisterClient(int client, ClientHooks hooks) {
  auto state = std::make_unique<ClientState>(engine_);
  state->client = client;
  state->log = &node_->client_log(client);
  state->hooks = std::move(hooks);
  ClientState* raw = state.get();
  clients_[client] = std::move(state);
  engine_->Spawn(DigestWorker(raw), "sharedfs.digest");
}

uint64_t SharedFs::published_upto(int client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second->published_upto;
}

uint64_t SharedFs::replicated_upto(int client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second->replicated_upto;
}

void SharedFs::NotifyChunkReady(int client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return;
  }
  ClientState* state = it->second.get();
  // Slice newly accumulated log into chunk-sized work items.
  while (state->log->tail() - state->queued_upto >= config_->chunk_size) {
    uint64_t end = state->log->ChunkEnd(state->queued_upto, config_->chunk_size);
    if (end == state->queued_upto) {
      break;
    }
    std::pair<uint64_t, uint64_t> range{state->queued_upto, end};
    state->queued_upto = end;
    if (config_->mode == DfsMode::kAssiseBgRepl) {
      bg_queues_[client % bg_queues_.size()]->Push({client, range});
    }
    state->digest_q.Push(range);
  }
}

// --- Digestion (publication on host cores) ---------------------------------------

sim::Task<Status> SharedFs::DigestRange(fslib::LogArea* log, uint64_t from, uint64_t to,
                                        uint64_t* published_upto, bool replica_side,
                                        obs::TraceContext ctx) {
  obs::Span span(trace_, component_, "digest", node_->id(), /*client=*/0, from, ctx);
  hw::Node& hw = node_->hw();
  Result<std::vector<fslib::ParsedEntry>> parsed = log->ParseRange(from, to);
  if (!parsed.ok()) {
    co_return parsed.status();
  }
  uint64_t n = parsed->size();
  uint64_t bytes = to - from;
  // Validation + index maintenance on host cores.
  uint64_t cycles = config_->fs_costs.validate_entry_cycles * n +
                    static_cast<uint64_t>(config_->fs_costs.validate_cycles_per_byte *
                                          static_cast<double>(bytes)) +
                    config_->fs_costs.publish_entry_cycles * n +
                    config_->fs_costs.index_entry_cycles * n;
  co_await hw.host_cpu().Run(hw.host_cpu().CyclesToTime(cycles), config_->host_fs_priority,
                             hw.acct_fs());
  Status vst = (replica_side ? replica_validator_ : validator_)->Validate(*parsed);
  if (!vst.ok()) {
    co_return vst;
  }
  if (config_->coalescing) {
    fslib::CoalesceEntries(&parsed.value());
  }
  Result<fslib::PublishPlan> plan = node_->fs().PlanPublish(*parsed, *log);
  if (!plan.ok()) {
    co_return plan.status();
  }
  // Host memcpy moves the data on several digestion threads (SharedFS
  // "creates many threads", §2.1 I1), consuming PM write bandwidth and
  // memory-controller (DRAM) bandwidth — Optane and DRAM share the iMC.
  sim::Time memcpy_time = hw.host_cpu().CyclesToTime(static_cast<uint64_t>(
      config_->fs_costs.pm_memcpy_cycles_per_byte * static_cast<double>(plan->copy_bytes)));
  constexpr int kDigestThreads = 4;
  std::vector<sim::Task<>> work;
  for (int t = 0; t < kDigestThreads; ++t) {
    work.push_back(hw.host_cpu().Run(memcpy_time / kDigestThreads, config_->host_fs_priority,
                                     hw.acct_fs()));
  }
  work.push_back(hw.pm_write().Transfer(plan->copy_bytes));
  work.push_back(hw.dram().Transfer(plan->copy_bytes));
  co_await sim::AwaitAll(engine_, std::move(work));
  node_->fs().ExecuteCopies(*plan);
  Status cst = node_->fs().CommitPublish(*plan, *parsed);
  if (!cst.ok()) {
    co_return cst;
  }
  metrics_.chunks_digested->Increment();
  metrics_.bytes_digested->Add(bytes);
  if (published_upto != nullptr) {
    *published_upto = std::max(*published_upto, to);
  }
  co_return Status::Ok();
}

sim::Task<> SharedFs::DigestWorker(ClientState* state) {
  while (true) {
    std::optional<std::pair<uint64_t, uint64_t>> range = co_await state->digest_q.Pop();
    if (!range.has_value()) {
      break;
    }
    auto [from, to] = *range;
    // Replication must cover the range before its log entries can ever be
    // reclaimed; in vanilla Assise and Hyperloop the digest context drives it.
    if (config_->mode == DfsMode::kAssise || config_->mode == DfsMode::kAssiseHyperloop) {
      if (state->replicated_upto < to) {
        co_await ReplicateRange(state, state->replicated_upto, to, /*urgent=*/false);
      }
    } else {
      // BgRepl: wait for the background workers to cover the range.
      while (!shutdown_ && state->replicated_upto < to) {
        co_await state->progress.Wait();
      }
    }
    if (shutdown_) {
      break;
    }
    Status st = co_await DigestRange(state->log, from, to, &state->published_upto);
    if (!st.ok()) {
      // Keep the log draining (otherwise clients wedge on a full log), but
      // never silently: a failed digest is an experiment-invalidating event.
      std::fprintf(stderr, "sharedfs[%d]: digest of client %d [%llu,%llu) FAILED: %s\n",
                   node_->id(), state->client, static_cast<unsigned long long>(from),
                   static_cast<unsigned long long>(to), st.ToString().c_str());
      state->published_upto = std::max(state->published_upto, to);
    }
    if (state->hooks.on_published) {
      state->hooks.on_published(state->published_upto);
    }
    TryReclaim(state);
  }
}

sim::Task<> SharedFs::BgReplWorker(int worker_id) {
  while (true) {
    auto item = co_await bg_queues_[worker_id]->Pop();
    if (!item.has_value()) {
      break;
    }
    auto [client, range] = *item;
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      continue;
    }
    ClientState* state = it->second.get();
    if (state->replicated_upto < range.second) {
      co_await ReplicateRange(state, std::max(state->replicated_upto, range.first),
                              range.second, /*urgent=*/false);
    }
  }
}

// --- Replication ---------------------------------------------------------------------

sim::Task<Status> SharedFs::ReplicateRange(ClientState* state, uint64_t from, uint64_t to,
                                           bool urgent, obs::TraceContext ctx) {
  std::vector<repl::Target> targets = protocol_->OnChunkReady(View());
  if (targets.empty()) {
    state->replicated_upto = std::max(state->replicated_upto, to);
    state->progress.NotifyAll();
    co_return Status::Ok();
  }
  // Serialise concurrent replication contexts and re-clip the range: another
  // context may have covered part of it while we waited for the lock.
  co_await state->repl_mu.Lock();
  from = std::max(from, state->replicated_upto);
  if (to <= from) {
    state->repl_mu.Unlock();
    co_return Status::Ok();
  }
  obs::Span span(trace_, component_, "replicate", node_->id(), state->client, from, ctx);
  Status result = Status::Ok();
  if (config_->mode == DfsMode::kAssiseHyperloop) {
    result = co_await ReplicateHyperloop(state, from, to, urgent, span.context());
    state->repl_mu.Unlock();
    co_return result;
  }

  uint64_t bytes = to - from;
  // Read the wire payload once; each target's stash entry shares its image.
  Result<fslib::LogRange> range = state->log->Export(from, to);
  fslib::LogRange payload = range.ok() ? std::move(*range) : fslib::LogRange{};

  // One blocking send per target (the host baseline is synchronous). Under
  // chain the single first-hop handler forwards downstream before acking, so
  // one call covers the whole chain — Assise's synchronous semantics. Under a
  // fan-out protocol every target is reached directly (terminal deliveries,
  // no forwarding) and the range commits per the protocol's quorum rule.
  std::set<int> acked;
  Status send_error = Status::Ok();
  for (size_t i = 0; i < targets.size(); ++i) {
    const repl::Target& target = targets[i];
    ReplChunkMsg msg;
    msg.client = static_cast<uint32_t>(state->client);
    msg.chunk_no = from;  // Ranges are identified by their start position.
    msg.from = from;
    msg.to = to;
    msg.wire_bytes = bytes;
    msg.urgent = urgent ? 1 : 0;
    msg.origin_node = node_->id();
    msg.hop = target.hop;
    msg.fanout = target.terminal ? 1 : 0;
    msg.ctx = span.context();
    // Built outside the co_await: GCC 12 destroys a conditional expression's
    // temporary twice when it is an argument of an awaited coroutine call.
    fslib::LogRange target_payload = i + 1 == targets.size() ? std::move(payload) : payload;
    Result<Ack> ack = co_await SendRange(msg, target.node, std::move(target_payload));
    if (!ack.ok()) {
      send_error = ack.status();
    } else if (ack->status == 0) {
      acked.insert(target.node);
    } else {
      send_error = Status::Error(static_cast<ErrorCode>(ack->status), "replica did not ack");
    }
  }
  // A forwarding protocol's single ack covers the whole chain; a fan-out
  // protocol asks its commit rule whether enough targets answered.
  bool committed = protocol_->info().forwards ? !acked.empty()
                                              : protocol_->CommitPoint(View(), acked);
  if (!committed) {
    state->repl_mu.Unlock();
    co_return send_error.ok() ? Status::Error(ErrorCode::kUnavailable,
                                              "replication quorum not reached")
                              : send_error;
  }
  metrics_.chunks_replicated->Increment();
  metrics_.bytes_replicated->Add(bytes);
  state->replicated_upto = std::max(state->replicated_upto, to);
  state->repl_mu.Unlock();
  state->progress.NotifyAll();
  TryReclaim(state);
  co_return Status::Ok();
}

sim::Task<Result<Ack>> SharedFs::SendRange(ReplChunkMsg msg, int target,
                                             fslib::LogRange payload) {
  const bool urgent = msg.urgent != 0;
  msg.ticket = cluster_->StashWire(std::move(payload));
  co_await cluster_->net().Write(HostInitiator(urgent),
                                 rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
                                 rdma::MemAddr{target, rdma::Space::kHostPm}, msg.to - msg.from);
  Result<Ack> ack = co_await cluster_->rpc().Call<ReplChunkMsg, Ack>(
      HostInitiator(urgent), rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
      cluster_->service_endpoint(target),
      urgent ? rdma::Channel::kLowLat : rdma::Channel::kHighTput, kRpcReplChunk, msg,
      /*timeout=*/200 * sim::kMillisecond, msg.ctx);
  if (!ack.ok()) {
    cluster_->WithdrawWire(msg.ticket);  // The handler never took it.
  }
  co_return ack;
}

sim::Task<Status> SharedFs::ReplicateHyperloop(ClientState* state, uint64_t from, uint64_t to,
                                               bool urgent, obs::TraceContext ctx) {
  uint64_t bytes = to - from;
  std::vector<int> chain = ChainFor(node_->id());

  // Periodic verb-batch pre-posting: the one host-CPU dependency Hyperloop
  // keeps — and it is REPLICA-side (the WAIT-verb chains live on the remote
  // NICs and their hosts must refill them). Posting a batch costs
  // milliseconds of host work; when a replica host is contended the refill is
  // delayed, which is what blows up the 99.9th percentile (Table 3).
  if (++hyperloop_ops_since_prepost_ >= kHyperloopPrepostBatch) {
    hyperloop_ops_since_prepost_ = 0;
    metrics_.preposts->Increment();
    for (size_t hop = 1; hop < chain.size(); ++hop) {
      hw::Node& replica_hw = cluster_->hw_node(chain[hop]);
      co_await replica_hw.host_cpu().Run(2 * sim::kMillisecond, config_->host_fs_priority,
                                         replica_hw.acct_fs());
    }
  }

  // Mirror the bytes into every replica's log (the simulator's stand-in for
  // the NIC-chained WAIT-verb data movement).
  Result<fslib::LogRange> range = state->log->Export(from, to);
  fslib::LogRange payload = range.ok() ? std::move(*range) : fslib::LogRange{};

  // Hop 1: host-posted one-sided write into replica-1 PM (no remote CPU).
  rdma::Initiator post_only = HostInitiator(urgent);
  co_await cluster_->net().Write(post_only, rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
                                 rdma::MemAddr{chain[1], rdma::Space::kHostPm}, bytes);
  // Hops 2..n: NIC-driven chained writes (WAIT verbs), zero CPU anywhere.
  for (size_t hop = 2; hop < chain.size(); ++hop) {
    co_await cluster_->net().Write(rdma::Initiator{}, rdma::MemAddr{chain[hop - 1],
                                                                    rdma::Space::kHostPm},
                                   rdma::MemAddr{chain[hop], rdma::Space::kHostPm}, bytes);
  }
  for (size_t hop = 1; hop < chain.size(); ++hop) {
    cluster_->dfs_node(chain[hop]).client_log(state->client).Import(from, to, payload);
  }
  // Final ACK travels back over the wire.
  co_await engine_->SleepFor(config_->node_params.nic.net_latency);

  metrics_.chunks_replicated->Increment();
  metrics_.bytes_replicated->Add(bytes);
  state->replicated_upto = std::max(state->replicated_upto, to);
  state->progress.NotifyAll();
  TryReclaim(state);

  // Publication on replicas still needs the host: notify them asynchronously
  // (off the ack critical path).
  for (size_t hop = 1; hop < chain.size(); ++hop) {
    ReplChunkMsg note;
    note.client = static_cast<uint32_t>(state->client);
    note.from = from;
    note.to = to;
    note.direct_to_host = 1;
    note.origin_node = node_->id();
    note.hop = static_cast<int32_t>(chain.size());  // No forwarding.
    note.ctx = ctx;
    int target = chain[hop];
    engine_->Spawn([](SharedFs* self, int target, ReplChunkMsg note) -> sim::Task<> {
      Result<Ack> ignored = co_await self->cluster_->rpc().Call<ReplChunkMsg, Ack>(
          self->HostInitiator(false), rdma::MemAddr{self->node_->id(), rdma::Space::kHostPm},
          self->cluster_->service_endpoint(target), rdma::Channel::kHighTput, kRpcReplChunk, note,
          /*timeout=*/200 * sim::kMillisecond);
      (void)ignored;
    }(this, target, note), "sharedfs.repl");
  }
  co_return Status::Ok();
}

sim::Task<Ack> SharedFs::HandleReplRange(ReplChunkMsg msg) {
  hw::Node& hw = node_->hw();
  fslib::LogArea& log = node_->client_log(static_cast<int>(msg.client));
  // Take the payload first: the caller withdraws it if the call fails.
  std::optional<fslib::LogRange> payload = TakeDelivery(msg, log);
  if (!payload) {
    co_return Ack{static_cast<int32_t>(ErrorCode::kUnavailable)};
  }
  bool urgent = msg.urgent != 0;
  obs::Span recv_span(trace_, component_, "repl_recv", node_->id(),
                      static_cast<int>(msg.client), msg.chunk_no, msg.ctx);
  msg.ctx = recv_span.context();

  if (msg.direct_to_host == 0) {
    // Persist bookkeeping for the received range.
    co_await hw.host_cpu().RunCycles(3000, urgent ? sim::Priority::kHigh
                                                  : config_->host_fs_priority,
                                     hw.acct_fs());
    log.Import(msg.from, msg.to, *payload);

    // Forward down the chain before acking (chain replication). Terminal
    // (fanout) deliveries are point-to-point and never relayed.
    std::vector<int> chain = ChainFor(msg.origin_node);
    if (msg.fanout == 0 && msg.hop + 1 < static_cast<int>(chain.size())) {
      ReplChunkMsg fwd = msg;
      fwd.hop = msg.hop + 1;
      Result<Ack> ignored = co_await SendRange(fwd, chain[fwd.hop], std::move(*payload));
      (void)ignored;
    }
  }

  // Queue local digestion of the replicated range.
  GetReplicaState(static_cast<int>(msg.client))->digest_q.Push({msg.from, msg.to});
  co_return Ack{};
}

SharedFs::ReplicaState* SharedFs::GetReplicaState(int client) {
  auto it = replicas_.find(client);
  if (it != replicas_.end()) {
    return it->second.get();
  }
  auto state = std::make_unique<ReplicaState>(engine_);
  state->log = &node_->client_log(client);
  ReplicaState* raw = state.get();
  replicas_[client] = std::move(state);
  engine_->Spawn(ReplicaDigestWorker(raw), "sharedfs.digest");
  return raw;
}

sim::Task<> SharedFs::ReplicaDigestWorker(ReplicaState* state) {
  while (true) {
    std::optional<std::pair<uint64_t, uint64_t>> range = co_await state->digest_q.Pop();
    if (!range.has_value()) {
      break;
    }
    if (range->second <= state->published_upto || range->first < state->published_upto) {
      continue;  // Duplicate or overlapping notification: already covered.
    }
    state->pending[range->first] = range->second;
    // Digest every range that is now contiguous with the published frontier.
    while (true) {
      auto it = state->pending.find(state->published_upto);
      if (it == state->pending.end()) {
        break;
      }
      uint64_t from = it->first;
      uint64_t to = it->second;
      state->pending.erase(it);
      Status st = co_await DigestRange(state->log, from, to, &state->published_upto,
                                       /*replica_side=*/true);
      if (!st.ok()) {
        metrics_.replica_digest_failures->Increment();
        state->published_upto = std::max(state->published_upto, to);  // Skip, stay live.
      }
    }
  }
}

// --- fsync / open ------------------------------------------------------------------------

sim::Task<Status> SharedFs::Fsync(int client, uint64_t upto, obs::TraceContext ctx) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    co_return Status::Error(ErrorCode::kInvalid, "unknown client");
  }
  ClientState* state = it->second.get();
  // Queue any not-yet-chunked log (including the partial tail) for digestion,
  // so publication eventually covers everything fsync made durable.
  NotifyChunkReady(client);
  if (upto > state->queued_upto) {
    state->digest_q.Push({state->queued_upto, upto});
    if (config_->mode == DfsMode::kAssiseBgRepl) {
      bg_queues_[client % bg_queues_.size()]->Push({client, {state->queued_upto, upto}});
    }
    state->queued_upto = upto;
  }
  if (state->replicated_upto < upto) {
    Status st =
        co_await ReplicateRange(state, state->replicated_upto, upto, /*urgent=*/true, ctx);
    if (!st.ok()) {
      co_return st;
    }
  }
  co_await leases_->durable().Wait();
  co_return Status::Ok();
}

sim::Task<Status> SharedFs::OpenCheck(int client, fslib::InodeNum inum, uint32_t flags) {
  hw::Node& hw = node_->hw();
  co_await hw.host_cpu().RunCycles(3000, config_->host_fs_priority, hw.acct_fs());
  Result<fslib::FileAttr> attr = node_->fs().GetAttr(inum);
  if (attr.ok() && (attr->mode & fslib::kPermRead) == 0) {
    co_return Status::Error(ErrorCode::kPermission, "no read permission");
  }
  co_return Status::Ok();
}

void SharedFs::TryReclaim(ClientState* state) {
  uint64_t upto = std::min(state->published_upto, state->replicated_upto);
  if (upto > state->reclaimed_upto) {
    state->reclaimed_upto = upto;
    state->log->Reclaim(upto);
    state->log->PersistMeta();
    if (state->hooks.on_reclaim) {
      state->hooks.on_reclaim(upto);
    }
  }
}

}  // namespace linefs::core
