#include "src/core/nicfs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "src/compress/lzw.h"
#include "src/core/cluster.h"
#include "src/core/clustermgr.h"
#include "src/pipeline/registry.h"
#include "src/repl/registry.h"

namespace linefs::core {

// Doorbell/CQ batch: 8 posts = a 4-chunk window's bulk-write + control pairs on one QP.
constexpr uint64_t kDoorbellBatch = 8;
// Retransmit sweeper period: three sweeps per kReplRetryTimeout.
constexpr sim::Time kReplRetryInterval = 50 * sim::kMillisecond;
// Wire silence before an unacked peer is re-sent; far above any healthy round trip.
constexpr sim::Time kReplRetryTimeout = 150 * sim::kMillisecond;
// §3.5 kernel-worker probe period: a dead host is noticed within ~0.1 s at 10 pings/s.
constexpr sim::Time kKworkerCheckInterval = 100 * sim::kMillisecond;
// Kernel-worker RPC deadline, far above a healthy 4 MB copy: only a dead host trips isolation.
constexpr sim::Time kKworkerRpcTimeout = 30 * sim::kMillisecond;
// §4 flow control: fetch stops above 70% NIC-memory use and resumes below 30%,
// so in-flight chunks always have room to drain.
constexpr double kMemHighWatermark = 0.70;
constexpr double kMemLowWatermark = 0.30;

NicFs::Metrics::Metrics(const obs::MetricScope& scope_in)
    : scope(scope_in),
      chunks_fetched(scope.CounterAt("chunks_fetched")),
      bytes_fetched(scope.CounterAt("bytes_fetched")),
      chunks_transferred(scope.CounterAt("chunks_transferred")),
      wire_bytes(scope.CounterAt("wire_bytes")),
      raw_repl_bytes(scope.CounterAt("raw_repl_bytes")),
      coalesce_saved_bytes(scope.CounterAt("coalesce_saved_bytes")),
      validation_failures(scope.CounterAt("validation_failures")),
      checksum_verified(scope.CounterAt("checksum_verified")),
      checksum_mismatches(scope.CounterAt("checksum_mismatches")),
      isolated_publishes(scope.CounterAt("isolated_publishes")),
      flow_ctrl_stall_ns(scope.CounterAt("flow_ctrl_stall_ns")),
      repl_retransmits(scope.CounterAt("repl_retransmits")),
      repl_send_failures(scope.CounterAt("repl_send_failures")),
      stage_workers_retired(scope.CounterAt("stage_workers_retired")),
      nic_reads(scope.CounterAt("nic_reads")),
      nic_read_bytes(scope.CounterAt("nic_read_bytes")),
      stage_fetch(scope.Sub("stage").HistogramAt("fetch")),
      stage_publish(scope.Sub("stage").HistogramAt("publish")),
      stage_transfer(scope.Sub("stage").HistogramAt("transfer")),
      stage_ack(scope.Sub("stage").HistogramAt("ack")),
      qdepth_transfer_rb(scope.Sub("qdepth").HistogramAt("transfer_rb")),
      qdepth_publish_rb(scope.Sub("qdepth").HistogramAt("publish_rb")),
      inflight_fetch(scope.Sub("qdepth").HistogramAt("fetch_inflight")),
      inflight_transfer(scope.Sub("qdepth").HistogramAt("transfer_inflight")),
      nic_mem_utilization(scope.GaugeAt("nic_mem_utilization")),
      tl_transfer_inflight(
          scope.Sub("qdepth").TimeSeriesAt("transfer_inflight", obs::SeriesKind::kSampled)),
      tl_lease_grants(scope.Sub("lease").TimeSeriesAt("grants", obs::SeriesKind::kCounter)) {}

NicFs::Metrics::StageSet& NicFs::Metrics::ForStage(const std::string& name) {
  auto it = stage_sets.find(name);
  if (it == stage_sets.end()) {
    StageSet set;
    set.latency = scope.Sub("stage").HistogramAt(name);
    set.bypassed = scope.Sub("bypassed").CounterAt(name);
    set.qdepth = scope.Sub("qdepth").HistogramAt(name);
    set.tl_qdepth = scope.Sub("qdepth").TimeSeriesAt(name, obs::SeriesKind::kSampled);
    it = stage_sets.emplace(name, set).first;
  }
  return it->second;
}

NicFs::StatsSnapshot NicFs::stats() const {
  StatsSnapshot s;
  s.chunks_fetched = metrics_.chunks_fetched->value();
  s.bytes_fetched = metrics_.bytes_fetched->value();
  s.chunks_transferred = metrics_.chunks_transferred->value();
  s.wire_bytes = metrics_.wire_bytes->value();
  s.raw_repl_bytes = metrics_.raw_repl_bytes->value();
  s.coalesce_saved_bytes = metrics_.coalesce_saved_bytes->value();
  s.validation_failures = metrics_.validation_failures->value();
  s.checksum_verified = metrics_.checksum_verified->value();
  s.checksum_mismatches = metrics_.checksum_mismatches->value();
  s.isolated_publishes = metrics_.isolated_publishes->value();
  s.flow_ctrl_stall_ns = metrics_.flow_ctrl_stall_ns->value();
  s.repl_retransmits = metrics_.repl_retransmits->value();
  s.repl_send_failures = metrics_.repl_send_failures->value();
  s.stage_workers_retired = metrics_.stage_workers_retired->value();
  s.nic_reads = metrics_.nic_reads->value();
  s.nic_read_bytes = metrics_.nic_read_bytes->value();
  s.lease_active = leases_->active_leases();
  s.lease_grants = leases_->grants();
  s.lease_revocations = leases_->revocations();
  s.stages["fetch"].latency = metrics_.stage_fetch->Summarize();
  s.stages["publish"].latency = metrics_.stage_publish->Summarize();
  s.stages["transfer"].latency = metrics_.stage_transfer->Summarize();
  s.stages["ack"].latency = metrics_.stage_ack->Summarize();
  for (const auto& [name, set] : metrics_.stage_sets) {
    StatsSnapshot::StageStats& st = s.stages[name];
    st.latency = set.latency->Summarize();
    st.bypassed = set.bypassed->value();
  }
  for (const auto& [client, pipe] : pipes_) {
    for (const auto& unit : pipe->stages) {
      s.stages[unit->stage->info().name].workers += unit->workers;
    }
  }
  return s;
}

double NicFs::nic_load() {
  // Occupancy: in-flight fetch DMAs + in-flight transfers + queued chunks,
  // over the configured window capacity, clamped to 1.
  size_t busy = 0;
  for (const auto& [client, pipe] : pipes_) {
    for (const auto& unit : pipe->stages) {
      busy += unit->queue.size();
    }
    busy += pipe->transfer_rb.size() + pipe->publish_rb.size();
    busy += static_cast<size_t>(pipe->fetch_inflight + pipe->transfer_inflight);
  }
  for (const auto& [client, pipe] : replica_pipes_) {
    busy += pipe->publish_rb.size();
  }
  double capacity =
      static_cast<double>(std::max(1, config_->repl.fetch_depth) +
                          std::max(1, config_->repl.transfer_window)) *
      static_cast<double>(std::max<size_t>(1, pipes_.size()));
  double inst = std::min(1.0, static_cast<double>(busy) / capacity);
  sim::Time now = engine_->Now();
  double keep = std::pow(0.75, static_cast<double>(now - nic_load_at_) /
                                   static_cast<double>(500 * sim::kMicrosecond));
  nic_load_ = keep * nic_load_ + (1.0 - keep) * inst;
  nic_load_at_ = now;
  return nic_load_;
}

void NicFs::RecordDepth(obs::Histogram* hist, size_t depth, obs::TimeSeries* tl) {
  hist->Record(static_cast<sim::Time>(depth));
  if (tl != nullptr) {
    tl->Record(engine_->Now(), static_cast<int64_t>(depth));
  }
}

namespace {

// SmartNIC cores: urgent (fsync-path) work runs realtime on the polling thread.
rdma::Initiator NicCores(hw::Node& hw, bool urgent) {
  rdma::Initiator init;
  init.cpu = &hw.nic().cpu();
  init.priority = urgent ? sim::Priority::kRealtime : sim::Priority::kNormal;
  init.account = hw.nic().nicfs_account();
  init.polls = urgent;
  // SmartNIC verbs traverse the SoC-internal PCIe to the ConnectX transport,
  // and the A72's slow caches inflate doorbell paths (§5.2.5).
  init.extra_latency = 8 * sim::kMicrosecond;
  return init;
}

}  // namespace

NicFs::NicFs(Cluster* cluster, DfsNode* node, KernelWorker* kworker, const DfsConfig* config)
    : FsService(cluster, node, config, "nicfs", rdma::Space::kNicMem,
                NicCores(node->hw(), /*urgent=*/false)),
      kworker_(kworker),
      kworker_ep_(cluster->rpc().Resolve(KernelWorker::EndpointName(node->id()))),
      metrics_(obs::MetricScope(&cluster->metrics(), component_)) {}

rdma::Initiator NicFs::NicInitiator(bool urgent) const { return NicCores(node_->hw(), urgent); }

rdma::Initiator NicFs::LibFsInitiator() const {
  rdma::Initiator init;
  init.cpu = &node_->hw().host_cpu();
  init.priority = sim::Priority::kNormal;
  init.account = node_->hw().acct_fs();
  return init;
}

void NicFs::OnPeerLiveness(int node, bool alive) {
  if (shutdown_) {
    return;
  }
  protocol_->OnPeerFailure(View(), node, alive);
  for (auto& [client, pipe] : pipes_) {
    pipe->retry_kick.NotifyAll();
  }
}

void NicFs::Start() {
  rdma::RpcEndpoint* ep = cluster_->rpc().CreateEndpoint(
      EndpointName(node_->id()), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
      &node_->hw().nic().cpu(), node_->hw().nic().nicfs_account(),
      /*has_low_lat_poller=*/true);
  // NICFS survives host crashes (the SmartNIC is a separate failure domain);
  // it only disappears when the cluster manager declares the service dead.
  ep->SetAlivePredicate(
      [cluster = cluster_, id = node_->id()] { return cluster->service_alive(id); });

  ep->Handle<StartPipelineReq, Ack>(kRpcStartPipeline,
                                    [this](StartPipelineReq req) -> sim::Task<Ack> {
                                      auto it = pipes_.find(static_cast<int>(req.client));
                                      if (it != pipes_.end()) {
                                        if (req.ctx.valid()) {
                                          it->second->active_ctx = req.ctx;
                                        }
                                        it->second->fetch_cv.NotifyAll();
                                      }
                                      co_return Ack{};
                                    });

  ep->Handle<FsyncReq, Ack>(kRpcFsync,
                            [this](FsyncReq req) -> sim::Task<Ack> {
                              co_return co_await HandleFsync(req);
                            });

  ep->Handle<ReadReq, Ack>(kRpcRead, [this](ReadReq req) -> sim::Task<Ack> {
    // NIC-side half of the adaptive read path (DfsConfig::read_path): the
    // wimpy NIC core walks the index, pulls the bytes from host PM, and
    // streams them host-ward over PCIe. Pure timing model — the host-side
    // LibFs materialises the bytes locally (same Region), so the response
    // carries no payload.
    metrics_.nic_reads->Increment();
    metrics_.nic_read_bytes->Add(req.len);
    co_await node_->hw().nic().cpu().RunCycles(config_->fs_costs.read_index_cycles,
                                               sim::Priority::kNormal,
                                               node_->hw().nic().nicfs_account());
    co_await node_->hw().pm_read().Transfer(req.len);
    co_await node_->hw().nic().pcie_n2h().Transfer(req.len);
    co_return Ack{};
  });

  ep->Handle<OpenReq, Ack>(kRpcOpen, [this](OpenReq req) -> sim::Task<Ack> {
    // Permission check on the SmartNIC (§3.6)...
    co_await node_->hw().nic().cpu().RunCycles(2500, sim::Priority::kRealtime,
                                               node_->hw().nic().nicfs_account());
    Result<fslib::FileAttr> attr = node_->fs().GetAttr(req.inum);
    if (attr.ok() && (attr->mode & fslib::kPermRead) == 0) {
      co_return Ack{static_cast<int32_t>(ErrorCode::kPermission)};
    }
    // ...then ask the kernel worker to map the pages read-only.
    Result<Ack> mapped = co_await cluster_->rpc().Call<OpenReq, Ack>(
        NicInitiator(false), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
        kworker_ep_, rdma::Channel::kHighTput, kRpcKworkerMmap,
        req, kKworkerRpcTimeout);
    if (!mapped.ok()) {
      co_return Ack{static_cast<int32_t>(mapped.code())};
    }
    co_return *mapped;
  });

  ep->Handle<LeaseReq, LeaseResp>(kRpcLease, [this](LeaseReq req) -> sim::Task<LeaseResp> {
    co_return co_await GrantLease(req, NicInitiator(/*urgent=*/true), 1200, "nicfs.lease",
                                  metrics_.tl_lease_grants);
  });

  ep->Handle<ReplChunkMsg, Ack>(kRpcReplChunk, [this](ReplChunkMsg msg) -> sim::Task<Ack> {
    // Ack receipt immediately; processing (local copy, forwarding, ack to the
    // primary, publication) proceeds asynchronously so the sender can pipeline
    // the next chunk (Fig. 3).
    engine_->Spawn(HandleReplChunk(msg), "nicfs.repl_recv");
    co_return Ack{};
  });

  ep->Handle<ReplAckMsg, Ack>(kRpcReplAck, [this](ReplAckMsg msg) -> sim::Task<Ack> {
    HandleReplAck(msg);
    co_return Ack{};
  });

  ep->Handle<HeartbeatMsg, Ack>(kRpcHeartbeat, [this](HeartbeatMsg msg) -> sim::Task<Ack> {
    co_return Ack{};
  });

  ep->Handle<EpochUpdateMsg, Ack>(kRpcEpochUpdate, [this](EpochUpdateMsg msg) -> sim::Task<Ack> {
    SetEpoch(msg.epoch);
    co_return Ack{};
  });

  ep->Handle<HistoryBitmapReq, HistoryBitmapResp>(
      kRpcHistoryBitmap, [this](HistoryBitmapReq req) -> sim::Task<HistoryBitmapResp> {
        HistoryBitmapResp resp;
        resp.inode_count =
            static_cast<uint32_t>(node_->InodesUpdatedSince(req.from_epoch).size());
        co_return resp;
      });

  ep->Handle<FetchInodeReq, FetchInodeResp>(
      kRpcFetchInode, [this](FetchInodeReq req) -> sim::Task<FetchInodeResp> {
        FetchInodeResp resp;
        Result<fslib::FileAttr> attr = node_->fs().GetAttr(req.inum);
        if (!attr.ok()) {
          resp.status = static_cast<int32_t>(attr.code());
        } else {
          resp.size = attr->size;
        }
        co_return resp;
      });

  engine_->Spawn(KworkerMonitor(), "nicfs.monitor");
}

void NicFs::Shutdown() {
  shutdown_ = true;
  for (auto& [client, pipe] : pipes_) {
    for (auto& unit : pipe->stages) {
      unit->queue.Close();
    }
    pipe->transfer_rb.Close();
    pipe->publish_rb.Close();
    pipe->fetch_cv.NotifyAll();
    pipe->progress.NotifyAll();
    pipe->retry_kick.NotifyAll();
  }
  for (auto& [client, pipe] : replica_pipes_) {
    pipe->publish_rb.Close();
  }
}

void NicFs::SetEpoch(uint64_t epoch) {
  epoch_ = epoch;
  node_->fs().SetEpoch(epoch);
}

uint64_t NicFs::replicated_upto(int client) const {
  auto it = pipes_.find(client);
  return it == pipes_.end() ? 0 : it->second->replicated_upto;
}

uint64_t NicFs::published_upto(int client) const {
  auto it = pipes_.find(client);
  return it == pipes_.end() ? 0 : it->second->published_upto;
}

void NicFs::RegisterClient(int client, ClientHooks hooks) {
  auto pipe = std::make_unique<ClientPipe>(engine_, std::max(1, config_->repl.fetch_depth),
                                           std::max(1, config_->repl.transfer_window));
  pipe->client = client;
  pipe->log = &node_->client_log(client);
  pipe->hooks = std::move(hooks);
  pipe->on_published = pipe->hooks.on_published;
  pipe->as_client = pipe.get();
  ClientPipe* raw = pipe.get();
  pipes_[client] = std::move(pipe);

  raw->env.engine = engine_;
  raw->env.costs = &config_->fs_costs;
  raw->env.coalescing = config_->coalescing;
  raw->env.compression_threads = config_->compression_threads;
  raw->env.node = node_->id();
  raw->env.component = component_;
  raw->env.trace = trace_;
  raw->env.validator = validator_.get();
  raw->env.log = raw->log;
  raw->env.validation_failures = metrics_.validation_failures;
  BuildStages(raw);

  if (config_->pipeline_parallel()) {
    engine_->Spawn(FetchLoop(raw), "nicfs.fetch");
    for (auto& unit : raw->stages) {
      unit->workers = 1;
      engine_->Spawn(StageWorker(raw, unit.get(), LocalPlacement()), "nicfs.stage");
    }
    engine_->Spawn(PublishWorker(raw), "nicfs.publish");
    engine_->Spawn(TransferWorker(raw), "nicfs.transfer");
    // Dynamic scaling moved to the cluster-wide StagePlacer: each scalable
    // stage of this pipe becomes a placement group it grows and shrinks.
    RegisterStageGroups(raw);
  } else {
    engine_->Spawn(SequentialLoop(raw), "nicfs.sequential");
  }
  // Both modes: sweep for chunks wedged by dropped messages or dead replicas.
  // The ticker turns the sweep interval into retry_kick notifications so a
  // failed one-way send can also wake the monitor out of turn.
  engine_->Spawn(ReplRetryTicker(raw), "nicfs.retry");
  engine_->Spawn(ReplRetryMonitor(raw), "nicfs.retry");
}

// --- Fetch stage --------------------------------------------------------------

bool NicFs::FetchReady(const ClientPipe* pipe) const {
  uint64_t tail = pipe->log->tail();
  bool enough = tail - pipe->fetch_upto >= config_->chunk_size;
  return tail > pipe->fetch_upto && (enough || pipe->urgent);
}

// Sequential half of fetch: the §4 watermark gate, range selection, NIC-memory
// reservation, and chunk numbering. Always runs from one coroutine per pipe,
// so chunk numbers are assigned strictly in client-log order no matter how
// many DMA reads are in flight.
sim::Task<NicFs::ChunkPtr> NicFs::AdmitFetch(ClientPipe* pipe) {
  if (!FetchReady(pipe)) {
    co_return nullptr;
  }
  // Replication flow control (§4): pause fetching above the high watermark
  // until memory drains below the low watermark. In-flight DMAs keep draining
  // while admission stalls, so the window never overrides the watermarks.
  hw::SmartNic& nic = node_->hw().nic();
  if (nic.mem_utilization() > kMemHighWatermark) {
    sim::Time stall_start = engine_->Now();
    while (!shutdown_ && nic.mem_utilization() > kMemLowWatermark) {
      co_await nic.mem_released().Wait();
    }
    metrics_.flow_ctrl_stall_ns->Add(
        static_cast<uint64_t>(engine_->Now() - stall_start));
  }
  if (shutdown_) {
    co_return nullptr;
  }
  uint64_t to = pipe->log->ChunkEnd(pipe->fetch_upto, AdmitChunkBytes(pipe));
  if (to == pipe->fetch_upto) {
    co_return nullptr;
  }
  auto chunk = std::make_shared<Chunk>();
  chunk->client = pipe->client;
  chunk->no = pipe->next_chunk_no++;
  chunk->from = pipe->fetch_upto;
  chunk->to = to;
  chunk->urgent = pipe->urgent;
  chunk->release_refs = 2;  // Publish path + replication path.
  chunk->mem_reserved = chunk->bytes();
  nic.ReserveMem(chunk->mem_reserved);
  metrics_.nic_mem_utilization->Set(nic.mem_utilization());
  pipe->fetch_upto = to;
  co_return chunk;
}

sim::Task<> NicFs::FetchDma(ClientPipe* pipe, ChunkPtr chunk) {
  obs::Span span(trace_, component_, "fetch", node_->id(), pipe->client, chunk->no,
                 pipe->active_ctx);
  chunk->ctx = span.context();
  sim::Time t0 = engine_->Now();
  // One-sided RDMA read of the log range: host PM -> NIC memory across PCIe.
  co_await cluster_->net().Read(NicInitiator(chunk->urgent),
                                rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
                                rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
                                chunk->bytes());
  Result<fslib::LogRange> range = pipe->log->Export(chunk->from, chunk->to);
  if (range.ok()) {
    chunk->range = std::move(*range);
  } else {
    chunk->failed = true;  // Validation counts it.
  }
  span.End();
  metrics_.stage_fetch->Record(engine_->Now() - t0);
  metrics_.chunks_fetched->Increment();
  metrics_.bytes_fetched->Add(chunk->bytes());
}

sim::Task<NicFs::ChunkPtr> NicFs::FetchOne(ClientPipe* pipe) {
  ChunkPtr chunk = co_await AdmitFetch(pipe);
  if (chunk != nullptr) {
    co_await FetchDma(pipe, chunk);
  }
  co_return chunk;
}

// One outstanding DMA read: completes the fetch, feeds validation, and hands
// its credit back (urgent admissions past the window run uncredited).
sim::Task<> NicFs::FetchSlot(ClientPipe* pipe, ChunkPtr chunk, bool credited) {
  co_await FetchDma(pipe, chunk);
  StageUnit* first = pipe->stages.front().get();
  first->queue.Push(std::move(chunk));
  RecordDepth(first->qdepth, first->queue.size(), first->tl_qdepth);
  --pipe->fetch_inflight;
  RecordDepth(metrics_.inflight_fetch, static_cast<size_t>(pipe->fetch_inflight));
  if (credited) {
    pipe->fetch_credits.Release();
  }
}

sim::Task<> NicFs::FetchLoop(ClientPipe* pipe) {
  while (!shutdown_) {
    if (!FetchReady(pipe)) {
      co_await pipe->fetch_cv.Wait();
      continue;
    }
    // Windowed prefetch: hold a credit per outstanding DMA (fetch_depth 1 is
    // the lock-step point). An urgent fsync must not queue behind a full
    // window — it admits uncredited so the synchronous path is never
    // throttled by background prefetch depth.
    bool credited = true;
    if (pipe->urgent) {
      credited = pipe->fetch_credits.TryAcquire();
    } else {
      co_await pipe->fetch_credits.Acquire();
      if (shutdown_ || !FetchReady(pipe)) {
        // Admission conditions changed while waiting for the credit.
        pipe->fetch_credits.Release();
        continue;
      }
    }
    ChunkPtr chunk = co_await AdmitFetch(pipe);
    if (chunk == nullptr) {
      if (credited) {
        pipe->fetch_credits.Release();
      }
      continue;
    }
    ++pipe->fetch_inflight;
    RecordDepth(metrics_.inflight_fetch, static_cast<size_t>(pipe->fetch_inflight));
    engine_->Spawn(FetchSlot(pipe, std::move(chunk), credited), "nicfs.fetch");
  }
}

// --- Configurable stage chain (src/pipeline) -----------------------------------

void NicFs::BuildStages(ClientPipe* pipe) {
  for (const std::string& name : pipeline::ParseStageList(config_->pipeline_stages)) {
    std::unique_ptr<pipeline::Stage> stage = pipeline::Stages().Create(name);
    if (stage == nullptr) {
      continue;  // Validate() rejects unknown names before boot.
    }
    Metrics::StageSet& set = metrics_.ForStage(name);
    auto unit = std::make_unique<StageUnit>(engine_, std::move(stage), pipe->stages.size());
    unit->qdepth = set.qdepth;
    unit->tl_qdepth = set.tl_qdepth;
    pipe->stages.push_back(std::move(unit));
  }
}

pipeline::Placement NicFs::LocalPlacement() const {
  pipeline::Placement p;
  p.site = pipeline::Placement::Site::kLocalNic;
  p.node = node_->id();
  p.pool = &node_->hw().nic().cpu();
  p.account = node_->hw().nic().nicfs_account();
  return p;
}

pipeline::Placement NicFs::PlacementFor(const pipeline::StagePlacer::Site& site) const {
  pipeline::Placement p;
  p.node = site.node;
  p.pool = site.pool;
  p.account = site.account;
  if (site.host) {
    // Host fallback: the chunk crosses PCIe up to host DRAM and a small
    // completion descriptor returns to the NIC.
    p.site = pipeline::Placement::Site::kHost;
    hw::SmartNic* nic = &node_->hw().nic();
    p.ship = [nic](uint64_t bytes) -> sim::Task<> {
      co_await nic->pcie_n2h().Transfer(bytes);
      co_await nic->pcie_h2n().Transfer(64);
    };
  } else if (site.node != node_->id()) {
    // Pooled remote NIC: the peer's cores pull the chunk over the fabric and
    // write a small result descriptor back into the home NIC.
    p.site = pipeline::Placement::Site::kRemoteNic;
    rdma::Initiator init;
    init.cpu = site.pool;
    init.account = site.account;
    init.extra_latency = 8 * sim::kMicrosecond;
    rdma::Network* net = &cluster_->net();
    rdma::MemAddr peer{site.node, rdma::Space::kNicMem};
    rdma::MemAddr home{node_->id(), rdma::Space::kNicMem};
    p.ship = [net, init, peer, home](uint64_t bytes) -> sim::Task<> {
      co_await net->Read(init, peer, home, bytes);
      co_await net->Write(init, peer, home, 64);
    };
  } else {
    p.site = pipeline::Placement::Site::kLocalNic;
  }
  return p;
}

void NicFs::PushDownstream(ClientPipe* pipe, StageUnit* unit, ChunkPtr chunk) {
  if (unit->stage->info().shared_fanout) {
    // Fan out to the publication pipeline: it shares the fetched+validated
    // data with replication.
    pipe->publish_rb.Push(chunk->no, chunk);
    RecordDepth(metrics_.qdepth_publish_rb, pipe->publish_rb.size());
  }
  size_t next = unit->index + 1;
  uint64_t chunk_no = chunk->no;
  if (next < pipe->stages.size()) {
    StageUnit* down = pipe->stages[next].get();
    down->queue.Push(std::move(chunk));
    RecordDepth(down->qdepth, down->queue.size(), down->tl_qdepth);
  } else {
    pipe->transfer_rb.Push(chunk_no, std::move(chunk));
    RecordDepth(metrics_.qdepth_transfer_rb, pipe->transfer_rb.size());
  }
}

sim::Task<> NicFs::StageWorker(ClientPipe* pipe, StageUnit* unit,
                               pipeline::Placement where) {
  const pipeline::Stage::Info& info = unit->stage->info();
  while (true) {
    std::optional<ChunkPtr> popped = co_await unit->queue.Pop();
    if (!popped.has_value()) {
      break;
    }
    RecordDepth(unit->qdepth, unit->queue.size(), unit->tl_qdepth);
    ChunkPtr chunk = std::move(*popped);
    if (chunk == nullptr) {
      // Retire pill from the placer: this worker scales back down.
      --unit->workers;
      --unit->retire_pending;
      metrics_.stage_workers_retired->Increment();
      break;
    }
    Metrics::StageSet& set = metrics_.ForStage(info.name);
    // If an optional stage is the pipeline bottleneck, NICFS opportunistically
    // disables it for queued chunks (§3.3.2, generalized to every optional
    // stage).
    if (info.optional &&
        unit->queue.size() > static_cast<size_t>(config_->stage_queue_threshold) &&
        unit->workers >= config_->max_stage_workers) {
      set.bypassed->Increment();
      PushDownstream(pipe, unit, std::move(chunk));
      continue;
    }
    sim::Time t0 = engine_->Now();
    if (where.ship) {
      // Relocated worker: pay the data movement to the executing complex.
      co_await where.ship(chunk->bytes());
    }
    co_await unit->stage->Process(pipe->env, where, chunk);
    set.latency->Record(engine_->Now() - t0);
    PushDownstream(pipe, unit, std::move(chunk));
  }
}

void NicFs::RegisterStageGroups(ClientPipe* pipe) {
  for (auto& unit_ptr : pipe->stages) {
    StageUnit* unit = unit_ptr.get();
    if (!unit->stage->info().scalable) {
      continue;
    }
    pipeline::StagePlacer::Group group;
    group.stage = unit->stage->info().name;
    group.node = node_->id();
    group.depth = [unit] { return unit->queue.size(); };
    group.workers = [unit] { return unit->workers; };
    group.retire_pending = [unit] { return unit->retire_pending; };
    group.spawn = [this, pipe, unit](const pipeline::StagePlacer::Site& site) {
      ++unit->workers;
      engine_->Spawn(StageWorker(pipe, unit, PlacementFor(site)), "nicfs.stage");
    };
    group.retire = [this, unit] {
      ++unit->retire_pending;
      unit->queue.Push(nullptr);
      RecordDepth(unit->qdepth, unit->queue.size(), unit->tl_qdepth);
    };
    cluster_->placer().RegisterGroup(std::move(group));
  }
}

// --- Transfer stage (replication pipeline) --------------------------------------

bool NicFs::BatchedPost(ClientPipe* pipe, int target) {
  // Posts separated by more than this have no batch to ride: the QP drained
  // and its CQ was swept, so the next post rings the doorbell afresh. Sized to
  // span back-to-back window slots on a busy pipe, not genuine idleness.
  constexpr sim::Time kIdleGap = 100 * sim::kMicrosecond;
  ClientPipe::Doorbell& db = pipe->doorbells[target];
  sim::Time now = engine_->Now();
  if (db.count > 0 && now - db.last_post > kIdleGap) {
    db.count = 0;
  }
  db.last_post = now;
  bool leader = db.count % kDoorbellBatch == 0;
  ++db.count;
  return !leader;
}

uint64_t NicFs::AdmitChunkBytes(const ClientPipe* pipe) const {
  uint64_t bytes = config_->chunk_size;
  int window = std::max(1, config_->repl.transfer_window);
  size_t backlog = pipe->transfer_rb.size() + static_cast<size_t>(pipe->transfer_inflight);
  // Window saturated with an fsync blocked behind it: admit quarter-size
  // chunks (floor 64KB) so the urgent range doesn't queue behind multi-MB
  // transfers. With slack, full-size chunks amortize per-chunk verb and
  // stage costs.
  if (static_cast<int>(backlog) >= window && pipe->urgent_waiters > 0) {
    bytes = std::max<uint64_t>(bytes / 4, 64ULL << 10);
  }
  return bytes;
}

sim::Task<> NicFs::DoTransfer(ClientPipe* pipe, ChunkPtr chunk) {
  // The protocol decides the wire topology: one successor for chain
  // replication, every live replica for a quorum fan-out.
  std::vector<repl::Target> targets = protocol_->OnChunkReady(View());
  if (targets.empty()) {
    // No live replicas: the chunk is trivially committed and retired.
    pipe->replicated_upto = std::max(pipe->replicated_upto, chunk->to);
    pipe->retired_upto = std::max(pipe->retired_upto, chunk->to);
    pipe->progress.NotifyAll();
    TryReclaim(pipe);
    ReleaseChunk(chunk.get());
    co_return;
  }
  obs::Span span(trace_, component_, "transfer", node_->id(), pipe->client, chunk->no,
                 chunk->ctx);
  sim::Time t0 = engine_->Now();
  // The wire carries the transformed image when any transform stage ran
  // (compression changes the size; encryption keeps it).
  uint64_t wire_bytes = chunk->wire.empty() ? chunk->bytes() : chunk->wire.size();
  // Urgency is evaluated at send time, not admission time: a chunk prefetched
  // before an fsync arrived still rides the low-latency channel once a waiter
  // is blocked on it.
  const bool urgent = chunk->urgent || pipe->urgent;

  // Register the pending acks BEFORE any await: acks race with this coroutine.
  // Staleness clocks start for every live replica — under a forwarding
  // protocol downstream peers are reached through the chain, but their copies
  // still ride on this send, so the sweeper times all of them from here.
  {
    ClientPipe::AckState st;
    st.to = chunk->to;
    st.from = chunk->from;
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      if (n != node_->id() && cluster_->service_alive(n)) {
        st.last_send[n] = engine_->Now();
      }
    }
    st.urgent = urgent;
    st.ctx = span.context();
    pipe->pending_acks[chunk->no] = std::move(st);
  }

  // The wire carries the transformed bytes when a transform stage ran (this
  // is their last reader, so they move), else the fetched image, shared; a
  // range with no bytes carries its validated headers.
  fslib::LogRange payload;
  if (chunk->wire.empty()) {
    payload.image = chunk->range.image;
  } else {
    payload.image = fslib::SharedBytes(std::move(chunk->wire));
  }
  if (payload.image.empty()) {
    payload.headers = chunk->entries;
  }

  // Bulk one-sided write into each target NICFS's memory, then its control
  // message — issued back-to-back under the pipe's wire mutex so concurrent
  // window slots submit to the QP strictly in client-log order (a fan-out's
  // sends also stay contiguous on the local link).
  co_await pipe->wire_mutex.Lock();
  // The stage histogram measures this chunk's own wire occupancy; time queued
  // behind other window slots is their wire time, not this chunk's (the
  // "transfer" span above still covers it for critical-path attribution).
  t0 = engine_->Now();
  for (size_t i = 0; i < targets.size(); ++i) {
    const repl::Target& target = targets[i];
    const bool last_target = i + 1 == targets.size();
    ReplChunkMsg msg;
    msg.client = static_cast<uint32_t>(pipe->client);
    msg.chunk_no = chunk->no;
    msg.from = chunk->from;
    msg.to = chunk->to;
    msg.wire_bytes = wire_bytes;
    msg.compressed = chunk->wire_compressed ? 1 : 0;
    msg.encrypted = chunk->wire_encrypted ? 1 : 0;
    msg.checksum_present = chunk->wire_checksummed ? 1 : 0;
    msg.checksum = chunk->wire_checksum;
    msg.urgent = urgent ? 1 : 0;
    msg.origin_node = node_->id();
    msg.hop = target.hop;
    msg.fanout = target.terminal ? 1 : 0;
    msg.ctx = span.context();
    // One-way send: the chunk's completion travels back as kRpcReplAck from
    // each replica, so there is no response to wait for — the transfer stage
    // resolves at its own send completion and the ack path runs fully
    // decoupled. The wire mutex releases as soon as the final control message
    // is on the wire, so the next window slot's bulk write books the link
    // while this slot is still processing its send completion.
    // Built outside the co_await: GCC 12 destroys a conditional expression's
    // temporary twice when it is an argument of an awaited coroutine call.
    fslib::LogRange target_payload = last_target ? std::move(payload) : payload;
    std::function<void()> on_wire;
    if (last_target) {
      on_wire = [pipe] { pipe->wire_mutex.Unlock(); };
    }
    Status sent = co_await SendChunk(msg, rdma::MemAddr{target.node, rdma::Space::kNicMem},
                                     wire_bytes, std::move(target_payload), pipe,
                                     std::move(on_wire));
    if (!sent.ok()) {
      OnReplSendFailure(pipe, chunk->no, target.node);
    }
    metrics_.wire_bytes->Add(wire_bytes);
  }
  span.End();
  metrics_.chunks_transferred->Increment();
  metrics_.raw_repl_bytes->Add(chunk->bytes());
  metrics_.stage_transfer->Record(engine_->Now() - t0);
  auto pending = pipe->pending_acks.find(chunk->no);
  if (pending != pipe->pending_acks.end()) {
    pending->second.transfer_done = engine_->Now();
  }
  ReleaseChunk(chunk.get());
}

sim::Task<> NicFs::TransferSlot(ClientPipe* pipe, ChunkPtr chunk) {
  co_await DoTransfer(pipe, std::move(chunk));
  --pipe->transfer_inflight;
  RecordDepth(metrics_.inflight_transfer, static_cast<size_t>(pipe->transfer_inflight),
              metrics_.tl_transfer_inflight);
  pipe->transfer_credits.Release();
}

sim::Task<> NicFs::TransferWorker(ClientPipe* pipe) {
  // In-order submission: the reorder buffer releases chunks in client-log
  // order, and slots are spawned in that order, so replicas receive chunks in
  // sequence. Completion is decoupled — up to `transfer_window` chunks ride
  // the wire concurrently (1 is the lock-step point) and the per-replica ack
  // tracking (pending_acks / AdvanceReplicated) absorbs any ack reorder.
  while (true) {
    std::optional<ChunkPtr> popped = co_await pipe->transfer_rb.PopNext();
    if (!popped.has_value()) {
      break;
    }
    RecordDepth(metrics_.qdepth_transfer_rb, pipe->transfer_rb.size());
    co_await pipe->transfer_credits.Acquire();
    ++pipe->transfer_inflight;
    RecordDepth(metrics_.inflight_transfer, static_cast<size_t>(pipe->transfer_inflight),
                metrics_.tl_transfer_inflight);
    engine_->Spawn(TransferSlot(pipe, std::move(*popped)), "nicfs.transfer");
  }
}

// --- Publish stage ---------------------------------------------------------------

sim::Task<Status> NicFs::PublishChunk(PipeBase* pipe, ChunkPtr chunk) {
  obs::Span span(trace_, component_, "publish", node_->id(), pipe->client, chunk->no,
                 chunk->ctx);
  sim::Time t0 = engine_->Now();
  Status result = Status::Ok();
  if (!chunk->failed) {
    // Coalescing edits its own list (the transfer stage may still read the
    // chunk's); the entries' payloads are shared slices either way.
    std::vector<fslib::ParsedEntry> coalesced;
    if (config_->coalescing) {
      coalesced = chunk->entries;
      metrics_.coalesce_saved_bytes->Add(fslib::CoalesceEntries(&coalesced));
    }
    const std::vector<fslib::ParsedEntry>& to_publish =
        config_->coalescing ? coalesced : chunk->entries;
    uint64_t n = to_publish.size();
    co_await node_->hw().nic().cpu().RunCycles(config_->fs_costs.publish_entry_cycles * n,
                                               sim::Priority::kNormal,
                                               node_->hw().nic().nicfs_account());
    Result<fslib::PublishPlan> planned = node_->fs().PlanPublish(to_publish, *pipe->log);
    if (!planned.ok()) {
      result = planned.status();
    } else {
      auto plan = std::make_shared<const fslib::PublishPlan>(std::move(*planned));
      bool copies_done = false;
      if (!isolated_ && kworker_ != nullptr) {
        uint64_t plan_id = node_->StashPlan(plan);
        Result<Ack> ack = co_await cluster_->rpc().Call<KworkerCopyReq, Ack>(
            NicInitiator(false), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
            kworker_ep_, rdma::Channel::kHighTput,
            kRpcKworkerCopy,
            KworkerCopyReq{static_cast<uint32_t>(pipe->client), plan_id, span.context()},
            kKworkerRpcTimeout, span.context());
        if (ack.ok() && ack->status == 0) {
          copies_done = true;
        } else {
          // Timed out or refused: drop the hand-off if unconsumed (a handler
          // that already took it keeps it alive) and go isolated (§3.5).
          node_->TakePlan(plan_id);
          isolated_ = true;
        }
      }
      if (!copies_done) {
        // Isolated NICFS operation: the SmartNIC itself moves the data with
        // RDMA across PCIe (read the log bytes up, write the public blocks
        // down) — slower, but host-OS-independent.
        metrics_.isolated_publishes->Increment();
        uint64_t bytes = plan->copy_bytes;
        co_await node_->hw().nic().pcie_h2n().Transfer(bytes);
        co_await node_->hw().nic().pcie_n2h().Transfer(bytes);
        co_await node_->hw().nic().cpu().RunCycles(
            static_cast<uint64_t>(config_->fs_costs.memcpy_cycles_per_byte *
                                  static_cast<double>(bytes)),
            sim::Priority::kNormal, node_->hw().nic().nicfs_account());
        node_->fs().ExecuteCopies(*plan);
      }
      // Metadata commit: extent/dirent/inode updates flow NIC -> host PM.
      co_await node_->hw().nic().cpu().RunCycles(config_->fs_costs.index_entry_cycles * n,
                                                 sim::Priority::kNormal,
                                                 node_->hw().nic().nicfs_account());
      co_await node_->hw().nic().pcie_n2h().Transfer(128 * std::max<uint64_t>(n, 1));
      Status st = node_->fs().CommitPublish(*plan, to_publish);
      if (!st.ok()) {
        result = st;
      }
      for (const fslib::ParsedEntry& e : to_publish) {
        node_->RecordInodeUpdate(epoch_, e.header.inum);
        // Namespace ops also mutate the parent directory's dirent blocks.
        if (e.header.parent != fslib::kInvalidInode) {
          node_->RecordInodeUpdate(epoch_, e.header.parent);
        }
        if (e.header.type == fslib::LogOpType::kRename) {
          node_->RecordInodeUpdate(epoch_, e.header.rename_dst_parent());
        }
      }
    }
  }
  pipe->published_upto = std::max(pipe->published_upto, chunk->to);
  if (pipe->on_published) {
    pipe->on_published(pipe->published_upto);
  }
  span.End();
  metrics_.stage_publish->Record(engine_->Now() - t0);
  if (pipe->as_client != nullptr) {
    TryReclaim(pipe->as_client);
  }
  co_return result;
}

sim::Task<> NicFs::PublishWorker(PipeBase* pipe) {
  // Publication applies strictly in client-log order (Fig. 2).
  while (true) {
    std::optional<ChunkPtr> popped = co_await pipe->publish_rb.PopNext();
    if (!popped.has_value()) {
      break;
    }
    RecordDepth(metrics_.qdepth_publish_rb, pipe->publish_rb.size());
    ChunkPtr chunk = *popped;
    Status st = co_await PublishChunk(pipe, chunk);
    if (!st.ok()) {
      std::fprintf(stderr, "nicfs[%d]: publish of client %d chunk %llu FAILED: %s\n",
                   node_->id(), chunk->client, static_cast<unsigned long long>(chunk->no),
                   st.ToString().c_str());
    }
    ReleaseChunk(chunk.get());
  }
}

// --- Sequential ablation (LineFS-NotParallel) -------------------------------------

sim::Task<> NicFs::SequentialLoop(ClientPipe* pipe) {
  while (!shutdown_) {
    ChunkPtr chunk = co_await FetchOne(pipe);
    if (chunk == nullptr) {
      if (shutdown_) {
        break;
      }
      co_await pipe->fetch_cv.Wait();
      continue;
    }
    // The configured stage chain runs inline in chain order, then the chunk
    // publishes and transfers — strictly one chunk at a time.
    pipeline::Placement local = LocalPlacement();
    for (auto& unit : pipe->stages) {
      sim::Time t0 = engine_->Now();
      co_await unit->stage->Process(pipe->env, local, chunk);
      metrics_.ForStage(unit->stage->info().name).latency->Record(engine_->Now() - t0);
    }
    co_await PublishChunk(pipe, chunk);
    uint64_t target = chunk->to;
    co_await DoTransfer(pipe, chunk);
    // Strictly sequential: wait for the full replication ack before the next
    // chunk is even fetched.
    while (!shutdown_ && pipe->replicated_upto < target) {
      co_await pipe->progress.Wait();
    }
  }
}

// --- Replication: replica side -------------------------------------------------------

NicFs::ReplicaPipe* NicFs::GetReplicaPipe(int client) {
  auto it = replica_pipes_.find(client);
  if (it != replica_pipes_.end()) {
    return it->second.get();
  }
  auto pipe = std::make_unique<ReplicaPipe>(engine_);
  pipe->client = client;
  pipe->log = &node_->client_log(client);
  ReplicaPipe* raw = pipe.get();
  replica_pipes_[client] = std::move(pipe);
  engine_->Spawn(PublishWorker(raw), "nicfs.publish");
  return raw;
}

sim::Task<> NicFs::HandleReplChunk(ReplChunkMsg msg) {
  fslib::LogArea& log = node_->client_log(static_cast<int>(msg.client));
  std::optional<fslib::LogRange> delivered = TakeDelivery(msg, log);
  if (!delivered) {
    co_return;  // Nothing this delivery could vouch for: the sweeper re-sends.
  }
  fslib::LogRange payload = std::move(*delivered);
  std::vector<int> chain = ChainFor(msg.origin_node);
  // Terminal (fanout) deliveries — quorum dispatch and retransmit refills —
  // are applied locally and never forwarded, whatever the chain looks like.
  bool last = msg.fanout != 0 || msg.hop + 1 >= static_cast<int>(chain.size());
  bool urgent = msg.urgent != 0;
  uint64_t raw_bytes = msg.to - msg.from;

  // This replica's receive span nests under the sender's transfer span; the
  // forward / local-copy / publish work below nests under it in turn.
  obs::Span recv_span(trace_, component_, "repl_recv", node_->id(),
                      static_cast<int>(msg.client), msg.chunk_no, msg.ctx);
  msg.ctx = recv_span.context();

  hw::SmartNic& nic = node_->hw().nic();
  if (!msg.direct_to_host) {
    nic.ReserveMem(raw_bytes);
    metrics_.nic_mem_utilization->Set(nic.mem_utilization());
  }

  // Verify the CRC32C seal over the wire bytes exactly as received, before
  // any transform is undone. A mismatch is counted but the chunk still flows:
  // in the model corruption never actually happens, so this is the detection
  // path, not a drop path.
  if (msg.checksum_present != 0) {
    co_await nic.cpu().RunCycles(
        static_cast<uint64_t>(config_->fs_costs.checksum_cycles_per_byte *
                              static_cast<double>(msg.wire_bytes)),
        urgent ? sim::Priority::kRealtime : sim::Priority::kNormal, nic.nicfs_account());
    if (!payload.image.empty()) {
      if (pipeline::WireChecksum(payload.image) == msg.checksum) {
        metrics_.checksum_verified->Increment();
      } else {
        metrics_.checksum_mismatches->Increment();
      }
    }
  }

  // Undo the wire transforms in reverse chain order for local use: decrypt,
  // then decompress, each into a buffer of its own. `payload` itself stays in
  // wire form — a chain forward must relay the exact bytes (and flags) this
  // hop received — so only the last hop hands it over. An untransformed
  // image is shared as it is.
  fslib::LogRange local = last ? std::move(payload) : payload;
  if (msg.encrypted != 0 && !local.image.empty()) {
    std::vector<uint8_t> plain(local.image.begin(), local.image.end());
    co_await nic.cpu().RunCycles(
        static_cast<uint64_t>(config_->fs_costs.encrypt_cycles_per_byte *
                              static_cast<double>(plain.size())),
        urgent ? sim::Priority::kRealtime : sim::Priority::kNormal, nic.nicfs_account());
    pipeline::XorCipher(&plain);  // Involutive: same routine decrypts.
    local.image = fslib::SharedBytes(std::move(plain));
  }
  // Decompress for local use (the paper's compression stage compresses once
  // at the primary; every replica decompresses for its own PM copy).
  if (msg.compressed != 0 && !local.image.empty()) {
    co_await nic.cpu().RunCycles(
        static_cast<uint64_t>(config_->fs_costs.decompress_cycles_per_byte *
                              static_cast<double>(raw_bytes)),
        urgent ? sim::Priority::kRealtime : sim::Priority::kNormal, nic.nicfs_account());
    Result<std::vector<uint8_t>> restored = compress::LzwDecompress(local.image);
    if (restored.ok()) {
      local.image = fslib::SharedBytes(std::move(*restored));
    } else {
      local.image = fslib::SharedBytes();
    }
  }

  std::vector<sim::Task<>> parallel;

  // (a) Forward to the next replica in the chain (Fig. 3, step 5).
  if (!last) {
    parallel.push_back(ForwardChunk(msg, std::move(payload), chain));
  }

  // (b) Copy into the local host PM log, then ack the primary (steps 6, 7).
  parallel.push_back(LocalCopyAndAck(msg, local, log));

  co_await sim::AwaitAll(engine_, std::move(parallel));

  // (c) Feed the replica's own publication pipeline. Retransmitted chunks the
  // pipe already published (or that recovery skipped past) must not be pushed
  // again: a reorder-buffer slot below next_seq would never be popped.
  ReplicaPipe* rp = GetReplicaPipe(static_cast<int>(msg.client));
  if (msg.chunk_no >= rp->publish_rb.next_seq()) {
    auto chunk = std::make_shared<Chunk>();
    chunk->client = static_cast<int>(msg.client);
    chunk->no = msg.chunk_no;
    chunk->from = msg.from;
    chunk->to = msg.to;
    chunk->release_refs = 1;
    chunk->ctx = msg.ctx;  // Replica publication joins the operation's trace.
    Result<std::vector<fslib::ParsedEntry>> parsed =
        log.Entries(msg.from, msg.to, local, msg.direct_to_host != 0);
    if (parsed.ok()) {
      chunk->entries = std::move(*parsed);
    } else {
      chunk->failed = true;
    }
    uint64_t chunk_no = chunk->no;
    rp->publish_rb.Push(chunk_no, std::move(chunk));
    RecordDepth(metrics_.qdepth_publish_rb, rp->publish_rb.size());
  }

  if (!msg.direct_to_host) {
    nic.ReleaseMem(raw_bytes);
    metrics_.nic_mem_utilization->Set(nic.mem_utilization());
  }
}

sim::Mutex* NicFs::ForwardMutex(int client) {
  auto it = forward_mutexes_.find(client);
  if (it == forward_mutexes_.end()) {
    it = forward_mutexes_.emplace(client, std::make_unique<sim::Mutex>(engine_)).first;
  }
  return it->second.get();
}

sim::Task<> NicFs::ForwardChunk(ReplChunkMsg msg, fslib::LogRange payload,
                                std::vector<int> chain) {
  int next = chain[msg.hop + 1];
  bool next_is_last = msg.hop + 2 >= static_cast<int>(chain.size());
  obs::Span span(trace_, component_, "forward", node_->id(), static_cast<int>(msg.client),
                 msg.chunk_no, msg.ctx);
  ReplChunkMsg fwd = msg;
  fwd.hop = msg.hop + 1;
  fwd.ctx = span.context();

  // Same single-QP submission ordering as the primary's transfer stage:
  // windowed arrivals must not let chunk k+1's bulk forward book the outbound
  // link ahead of chunk k's control message.
  sim::Mutex* wire_mu = ForwardMutex(static_cast<int>(msg.client));
  co_await wire_mu->Lock();
  rdma::MemAddr dst{next, rdma::Space::kNicMem};
  uint64_t bulk_bytes = msg.wire_bytes;
  if (next_is_last && msg.compressed == 0 && msg.encrypted == 0) {
    // Penultimate-hop optimisation (Fig. 3, step 6'): write straight into the
    // last replica's host PM log, skipping its SmartNIC memory copy. Only for
    // untransformed payloads — host PM must receive plaintext bytes. The
    // receiver then finds the image in its log; only elided headers travel.
    fwd.direct_to_host = 1;
    cluster_->dfs_node(next).client_log(static_cast<int>(msg.client))
        .Import(msg.from, msg.to, payload);
    payload.image = fslib::SharedBytes();
    dst.space = rdma::Space::kHostPm;
    bulk_bytes = msg.to - msg.from;
  }
  // Regular NIC-to-NIC forwards relay the payload in wire form (compressed
  // payloads stay compressed). One-way: the downstream replica acks the
  // origin directly, so the only failure this hop can see (and count) is its
  // own send completion. The origin's retransmit sweeper covers a lost
  // forward either way.
  Status sent = co_await SendChunk(fwd, dst, bulk_bytes, std::move(payload), nullptr,
                                   [wire_mu] { wire_mu->Unlock(); });
  if (!sent.ok()) {
    metrics_.repl_send_failures->Increment();
  }
}

sim::Task<> NicFs::LocalCopyAndAck(ReplChunkMsg msg, const fslib::LogRange& range,
                                   fslib::LogArea& log) {
  bool urgent = msg.urgent != 0;
  obs::Span span(trace_, component_, "repl_copy", node_->id(), static_cast<int>(msg.client),
                 msg.chunk_no, msg.ctx);
  // A direct delivery found its range already in this log (TakeDelivery).
  if (!msg.direct_to_host) {
    // NIC memory -> local host PM log across PCIe.
    co_await cluster_->net().RawTransfer(rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
                                         rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
                                         msg.to - msg.from);
    log.Import(msg.from, msg.to, range);
  }

  ReplAckMsg ack;
  ack.client = msg.client;
  ack.chunk_no = msg.chunk_no;
  ack.to = msg.to;
  ack.replica_node = node_->id();
  ack.ctx = span.context();
  // The ack is itself one-way: a lost ack leaves the chunk pending at the
  // origin until its sweeper retransmits, and the re-delivery re-acks. It
  // vouches for this delivery's own copy: a carried delivery imported its
  // payload above, a direct one found the range in the log.
  Status sent = co_await cluster_->rpc().Post(
      NicInitiator(urgent), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
      cluster_->service_endpoint(msg.origin_node),
      urgent ? rdma::Channel::kLowLat : rdma::Channel::kHighTput, kRpcReplAck, ack,
      10 * sim::kMillisecond, span.context());
  if (!sent.ok()) {
    metrics_.repl_send_failures->Increment();
  }
}

void NicFs::HandleReplAck(const ReplAckMsg& msg) {
  auto pit = pipes_.find(static_cast<int>(msg.client));
  if (pit == pipes_.end()) {
    return;
  }
  ClientPipe* pipe = pit->second.get();
  auto it = pipe->pending_acks.find(msg.chunk_no);
  if (it == pipe->pending_acks.end()) {
    return;  // Duplicate delivery of an already-completed chunk.
  }
  it->second.acked.insert(msg.replica_node);
  protocol_->OnAck(View(), msg.replica_node, msg.chunk_no);
  AdvanceReplicated(pipe);
}

bool NicFs::CommitComplete(const ClientPipe::AckState& state) const {
  // The protocol decides when a chunk becomes client-visible: chain requires
  // every *currently live* replica to have acked (replicas the cluster
  // manager has declared dead stop gating progress — the chain heals around
  // them, §3.6); quorum commits at a majority of copies. A readmitted replica
  // that never acked is re-required for retire — the retry sweeper re-sends
  // until it answers.
  return protocol_->CommitPoint(View(), state.acked);
}

bool NicFs::RetireComplete(const ClientPipe::AckState& state) const {
  return protocol_->RetirePoint(View(), state.acked);
}

void NicFs::AdvanceReplicated(ClientPipe* pipe) {
  // Commit scan: replicated_upto (the fsync-visible point) advances through
  // the contiguous prefix of chunks whose protocol commit point is reached.
  // Under quorum the prefix can commit while laggard acks are outstanding, so
  // committed entries stay in the table past this scan.
  bool advanced = false;
  for (auto& [chunk_no, state] : pipe->pending_acks) {
    if (state.committed) {
      continue;
    }
    if (!CommitComplete(state)) {
      break;
    }
    state.committed = true;
    if (state.transfer_done > 0) {
      metrics_.stage_ack->Record(engine_->Now() - state.transfer_done);
      obs::TraceEvent ev{component_, "ack", node_->id(), pipe->client, chunk_no,
                         state.transfer_done, engine_->Now()};
      if (state.ctx.valid()) {
        // The ack window (transfer done -> commit point) nests as a sibling
        // of the transfer span's children.
        ev.trace_id = state.ctx.trace_id;
        ev.span_id = trace_->NextId();
        ev.parent_span = state.ctx.parent_span;
      }
      trace_->Record(std::move(ev));
    }
    pipe->replicated_upto = std::max(pipe->replicated_upto, state.to);
    advanced = true;
  }
  // Retire scan: an entry leaves the table — and its log range stops backing
  // retransmits, making it reclaimable — only once every live replica acked.
  bool retired = false;
  while (!pipe->pending_acks.empty()) {
    auto first = pipe->pending_acks.begin();
    if (!first->second.committed || !RetireComplete(first->second)) {
      break;
    }
    pipe->retired_upto = std::max(pipe->retired_upto, first->second.to);
    pipe->pending_acks.erase(first);
    retired = true;
  }
  if (advanced) {
    pipe->progress.NotifyAll();
  }
  if (advanced || retired) {
    TryReclaim(pipe);
  }
}

void NicFs::OnReplSendFailure(ClientPipe* pipe, uint64_t chunk_no, int peer) {
  metrics_.repl_send_failures->Increment();
  auto it = pipe->pending_acks.find(chunk_no);
  if (it != pipe->pending_acks.end()) {
    // Backdate the staleness clocks so the sweeper treats the chunk as
    // overdue right now instead of after a full kReplRetryTimeout of silence.
    // A forwarding protocol loses every downstream copy with its first-hop
    // send, so all clocks expire; a fan-out protocol lost only `peer`'s copy
    // and the other in-flight sends are unaffected.
    sim::Time expired = engine_->Now() - kReplRetryTimeout;
    if (protocol_->info().forwards) {
      for (auto& [node, clock] : it->second.last_send) {
        clock = expired;
      }
    } else {
      it->second.last_send[peer] = expired;
    }
  }
  pipe->retry_kick.NotifyAll();
}

sim::Task<> NicFs::ReplRetryTicker(ClientPipe* pipe) {
  while (!shutdown_) {
    co_await engine_->SleepFor(kReplRetryInterval);
    pipe->retry_kick.NotifyAll();
  }
}

sim::Task<> NicFs::ReplRetryMonitor(ClientPipe* pipe) {
  while (!shutdown_) {
    co_await pipe->retry_kick.Wait();
    if (shutdown_) {
      break;
    }
    // Liveness may have changed since the last ack arrived (a replica declared
    // dead no longer gates the head of line) — re-evaluate unconditionally.
    AdvanceReplicated(pipe);
    if (pipe->pending_acks.empty()) {
      continue;
    }
    auto it = pipe->pending_acks.begin();
    // Head-of-line chunk: collect the live unacked peers whose last (re)send
    // has gone stale. A peer with no clock entry was readmitted after
    // dispatch and never received the chunk at all — immediately stale.
    std::vector<int> stale;
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      if (n == node_->id() || !cluster_->service_alive(n) ||
          it->second.acked.contains(n)) {
        continue;
      }
      auto [clock, missing] = it->second.last_send.try_emplace(n, 0);
      if (missing || engine_->Now() - clock->second >= kReplRetryTimeout) {
        clock->second = engine_->Now();
        stale.push_back(n);
      }
    }
    if (stale.empty()) {
      continue;
    }
    // A request/ack was lost, or a replica was unreachable at transfer time.
    // Snapshot the entry (acks racing with the awaits below may erase it) and
    // re-send point-to-point to exactly the stale peers.
    uint64_t chunk_no = it->first;
    co_await RetransmitChunk(pipe, chunk_no, it->second.from, it->second.to,
                             std::move(stale), it->second.urgent, it->second.ctx);
  }
}

sim::Task<> NicFs::RetransmitChunk(ClientPipe* pipe, uint64_t chunk_no, uint64_t from,
                                   uint64_t to, std::vector<int> peers, bool urgent,
                                   obs::TraceContext ctx) {
  obs::Span span(trace_, component_, "retransmit", node_->id(), pipe->client, chunk_no, ctx);
  // The log range is still resident: reclaim never passes an unreplicated
  // chunk, so the range can be re-read straight from the client log.
  Result<fslib::LogRange> exported = pipe->log->Export(from, to);
  const fslib::LogRange range = exported.ok() ? std::move(*exported) : fslib::LogRange{};
  for (int replica : peers) {
    // Re-check liveness per send: the awaits below span real simulated time
    // and the sweeper pre-filtered against an older view.
    if (replica == node_->id() || !cluster_->service_alive(replica)) {
      continue;
    }
    ReplChunkMsg msg;
    msg.client = static_cast<uint32_t>(pipe->client);
    msg.chunk_no = chunk_no;
    msg.from = from;
    msg.to = to;
    msg.wire_bytes = to - from;
    msg.urgent = urgent ? 1 : 0;
    msg.origin_node = node_->id();
    // Terminal delivery: retransmits fan out point-to-point, never
    // chain-forward (the original chain may have partially succeeded).
    msg.hop = 1;
    msg.fanout = 1;
    msg.ctx = span.context();
    Status sent = co_await SendChunk(msg, rdma::MemAddr{replica, rdma::Space::kNicMem},
                                     to - from, range);
    if (!sent.ok()) {
      // The chunk stays pending; the sweeper comes back on the next tick.
      metrics_.repl_send_failures->Increment();
    }
    metrics_.repl_retransmits->Increment();
  }
}

sim::Task<Status> NicFs::SendChunk(ReplChunkMsg msg, rdma::MemAddr dst, uint64_t bulk_bytes,
                                   fslib::LogRange payload, ClientPipe* doorbell,
                                   std::function<void()> on_wire) {
  const bool urgent = msg.urgent != 0;
  msg.ticket = cluster_->StashWire(std::move(payload));
  // Doorbell batching: the bulk write and its control send are consecutive
  // posts on this target's QP; under a busy window only every
  // kDoorbellBatch-th post pays the verb + doorbell cost.
  rdma::Initiator bulk_init = NicInitiator(urgent);
  if (doorbell != nullptr) {
    bulk_init.batched = BatchedPost(doorbell, dst.node);
  }
  co_await cluster_->net().Write(bulk_init, rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
                                 dst, bulk_bytes);
  rdma::Initiator ctl_init = NicInitiator(urgent);
  if (doorbell != nullptr) {
    ctl_init.batched = BatchedPost(doorbell, dst.node);
  }
  Status sent = co_await cluster_->rpc().Post(
      ctl_init, rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
      cluster_->service_endpoint(dst.node),
      urgent ? rdma::Channel::kLowLat : rdma::Channel::kHighTput, kRpcReplChunk, msg,
      10 * sim::kMillisecond, msg.ctx, std::move(on_wire));
  if (!sent.ok()) {
    cluster_->WithdrawWire(msg.ticket);  // No handler will ever take it.
  }
  co_return sent;
}

// --- LibFS entry points (host side of LibFS's RPCs) -----------------------------------

void NicFs::NotifyChunkReady(int client) {
  // Asynchronous RPC: LibFS does not wait (§3.3.1). Each kick roots a
  // background-publish trace that the pipeline stages parent into.
  engine_->Spawn(
      [](NicFs* self, int client) -> sim::Task<> {
        obs::Span root(self->trace_, "libfs." + std::to_string(client), "publish_kick",
                       self->node_->id(), client, 0, obs::TraceContext{});
        obs::TraceContext ctx = root.context();
        Result<Ack> ignored = co_await self->cluster_->rpc().Call<StartPipelineReq, Ack>(
            self->LibFsInitiator(), rdma::MemAddr{self->node_->id(), rdma::Space::kHostPm},
            self->cluster_->service_endpoint(self->node_->id()), rdma::Channel::kHighTput,
            kRpcStartPipeline, StartPipelineReq{static_cast<uint32_t>(client), ctx},
            /*timeout=*/10 * sim::kMillisecond, ctx);
        (void)ignored;
      }(this, client),
      "libfs.publish_kick");
}

sim::Task<Status> NicFs::Fsync(int client, uint64_t upto, obs::TraceContext ctx) {
  Result<Ack> ack = co_await cluster_->rpc().Call<FsyncReq, Ack>(
      LibFsInitiator(), rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
      cluster_->service_endpoint(node_->id()), rdma::Channel::kLowLat, kRpcFsync,
      FsyncReq{static_cast<uint32_t>(client), upto, ctx},
      /*timeout=*/10 * sim::kSecond, ctx);
  if (!ack.ok()) {
    co_return ack.status();
  }
  if (ack->status != 0) {
    co_return Status::Error(static_cast<ErrorCode>(ack->status), "fsync failed");
  }
  co_return Status::Ok();
}

sim::Task<Status> NicFs::OpenCheck(int client, fslib::InodeNum inum, uint32_t flags) {
  // Crosses PCIe to NICFS and on to the kernel worker (kRpcOpen) — the cost
  // that hurts open-heavy Varmail.
  Result<Ack> ack = co_await cluster_->rpc().Call<OpenReq, Ack>(
      LibFsInitiator(), rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
      cluster_->service_endpoint(node_->id()), rdma::Channel::kLowLat, kRpcOpen,
      OpenReq{static_cast<uint32_t>(client), inum, flags});
  if (!ack.ok()) {
    co_return ack.status();
  }
  if (ack->status != 0) {
    co_return Status::Error(static_cast<ErrorCode>(ack->status), "open denied");
  }
  co_return Status::Ok();
}

// --- fsync (§3.3.2 synchronous path) ---------------------------------------------------

sim::Task<Ack> NicFs::HandleFsync(FsyncReq req) {
  auto it = pipes_.find(static_cast<int>(req.client));
  if (it == pipes_.end()) {
    co_return Ack{static_cast<int32_t>(ErrorCode::kInvalid)};
  }
  ClientPipe* pipe = it->second.get();
  // The wait span nests under the client's fsync root; chunks fetched while
  // this fsync drives the pipe parent under it too.
  obs::Span span(trace_, component_, "fsync_wait", node_->id(), pipe->client, 0, req.ctx);
  if (req.ctx.valid()) {
    pipe->active_ctx = span.context();
  }
  ++pipe->urgent_waiters;
  pipe->urgent = true;
  pipe->fetch_cv.NotifyAll();
  while (!shutdown_ && pipe->replicated_upto < req.upto) {
    co_await pipe->progress.Wait();
  }
  --pipe->urgent_waiters;
  if (pipe->urgent_waiters == 0) {
    pipe->urgent = false;
  }
  // Crash consistency: granted leases must be durable before fsync returns.
  co_await leases_->durable().Wait();
  co_return Ack{};
}

// --- Reclaim ------------------------------------------------------------------------------

void NicFs::TryReclaim(ClientPipe* pipe) {
  // Reclaim is gated on the retire point, not the commit point: a committed
  // chunk may still back retransmits to laggard replicas, and RetransmitChunk
  // re-reads the bytes straight from the client log.
  uint64_t upto = std::min(pipe->published_upto, pipe->retired_upto);
  if (upto > pipe->reclaimed_upto) {
    pipe->reclaimed_upto = upto;
    pipe->log->Reclaim(upto);
    pipe->log->PersistMeta();
    if (pipe->hooks.on_reclaim) {
      pipe->hooks.on_reclaim(upto);
    }
  }
}

void NicFs::ReleaseChunk(Chunk* chunk) {
  if (--chunk->release_refs == 0 && chunk->mem_reserved > 0) {
    hw::SmartNic& nic = node_->hw().nic();
    nic.ReleaseMem(chunk->mem_reserved);
    metrics_.nic_mem_utilization->Set(nic.mem_utilization());
    chunk->mem_reserved = 0;
  }
}

// --- Recovery (§3.6) ---------------------------------------------------------------------

sim::Task<Result<uint64_t>> NicFs::Recover(int peer) {
  // 1) Read the persisted epoch from host PM.
  uint64_t persisted_epoch = node_->fs().epoch();
  co_await node_->hw().nic().pcie_h2n().Ping();

  // 2) Request the history bitmap from an online replica.
  Result<HistoryBitmapResp> bitmap = co_await cluster_->rpc().Call<HistoryBitmapReq,
                                                                   HistoryBitmapResp>(
      NicInitiator(false), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
      cluster_->service_endpoint(peer), rdma::Channel::kHighTput, kRpcHistoryBitmap,
      HistoryBitmapReq{persisted_epoch});
  if (!bitmap.ok()) {
    co_return bitmap.status();
  }

  // 3) Fetch every inode recorded between the persisted and current epoch and
  // resynchronise its data from the peer's public area. Dirent blocks are
  // directory data, so namespace changes ride along.
  DfsNode& peer_node = cluster_->dfs_node(peer);
  std::set<fslib::InodeNum> stale = peer_node.InodesUpdatedSince(persisted_epoch);
  uint64_t synced = 0;
  for (fslib::InodeNum inum : stale) {
    Result<fslib::Inode> remote = peer_node.fs().inodes().Get(inum);
    if (!remote.ok()) {
      // Deleted on the peer: drop locally too if present.
      if (node_->fs().inodes().InUse(inum)) {
        Result<fslib::Inode> local = node_->fs().inodes().Get(inum);
        if (local.ok()) {
          node_->fs().extents().Destroy(&local.value());
          node_->fs().inodes().Free(inum);
        }
      }
      continue;
    }
    // Wire + PCIe costs for the inode record and its data.
    uint64_t bytes = remote->size + fslib::Layout::kInodeSize;
    co_await cluster_->net().Read(NicInitiator(false),
                                  rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
                                  rdma::MemAddr{peer, rdma::Space::kHostPm}, bytes);
    // Materialise locally: allocate fresh blocks and copy contents.
    fslib::Inode local;
    if (node_->fs().inodes().InUse(inum)) {
      Result<fslib::Inode> existing = node_->fs().inodes().Get(inum);
      if (existing.ok()) {
        local = *existing;
        node_->fs().extents().Destroy(&local);
      }
    }
    local = *remote;
    local.extent_root = 0;
    node_->fs().CopyFileData(peer_node.fs(), &local);
    node_->fs().inodes().Put(local);
    ++synced;
  }
  // Directory caches are rebuilt from the freshly synced dirent blocks.
  node_->fs().dirs().InvalidateAll();
  // 4) Local update logs that touch recovered inodes are invalidated; our
  // scaled model simply resets pipeline progress to the logs' reclaimed state.
  SetEpoch(cluster_->manager().epoch());
  // 5) Replica-side pipelines skip chunks the chain transferred while this
  // node was excluded: their effects just arrived via the resync above, and
  // the chunks themselves will never be re-delivered. Publication resumes at
  // each origin's current transfer position.
  for (auto& [client, rp] : replica_pipes_) {
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      NicFs* origin = cluster_->nicfs(n);
      if (origin == nullptr || origin == this) {
        continue;
      }
      auto oit = origin->pipes_.find(client);
      if (oit == origin->pipes_.end()) {
        continue;
      }
      rp->publish_rb.FastForwardTo(oit->second->next_chunk_no);
      rp->published_upto = std::max(rp->published_upto, oit->second->fetch_upto);
    }
  }
  co_return synced;
}

// --- Failure detector (§3.5) ------------------------------------------------------------

sim::Task<> NicFs::KworkerMonitor() {
  while (!shutdown_) {
    co_await engine_->SleepFor(kKworkerCheckInterval);
    if (shutdown_ || kworker_ == nullptr) {
      continue;
    }
    Result<Ack> pong = co_await cluster_->rpc().Call<PingReq, Ack>(
        NicInitiator(false), rdma::MemAddr{node_->id(), rdma::Space::kNicMem},
        kworker_ep_, rdma::Channel::kHighTput, kRpcKworkerPing,
        PingReq{node_->id()}, kKworkerRpcTimeout);
    if (!pong.ok() && !isolated_) {
      isolated_ = true;
    } else if (pong.ok() && isolated_) {
      // The kernel worker is stateless: resume host-based publication (§3.5).
      isolated_ = false;
    }
  }
}

}  // namespace linefs::core
