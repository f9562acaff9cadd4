#include "src/load/generator.h"

#include <algorithm>

#include "src/core/cluster.h"
#include "src/fslib/types.h"
#include "src/sim/check.h"
#include "src/sim/engine.h"

namespace linefs::load {

namespace {

// A client's scratch pool (files created but not yet renamed/unlinked) is
// bounded; beyond this the oldest entry is forgotten (the file stays in the
// namespace, the generator just stops tracking it).
constexpr size_t kMaxScratchPool = 1024;

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kStat:
      return "stat";
    case OpKind::kRename:
      return "rename";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kUnlink:
      return "unlink";
    case OpKind::kWrite:
      return "write";
  }
  return "unknown";
}

Generator::Generator(sim::Engine* engine, std::vector<core::LibFs*> clients, Options options)
    : engine_(engine),
      clients_(std::move(clients)),
      options_(std::move(options)),
      rng_(options_.seed),
      workers_done_(engine) {
  LINEFS_CHECK(!clients_.empty());
  if (options_.tenants.empty()) {
    options_.tenants.push_back(TenantSpec{});
  }
  if (options_.sessions == 0) {
    options_.sessions = 1;
  }
  double total_weight = 0;
  for (const TenantSpec& t : options_.tenants) {
    total_weight += t.weight;
  }
  double acc = 0;
  for (const TenantSpec& t : options_.tenants) {
    popularity_.emplace_back(t.files, t.zipf_exponent);
    acc += t.weight / total_weight;
    tenant_cdf_.push_back(acc);
    const OpMix& m = t.mix;
    double mix_total = m.create + m.stat + m.rename + m.mkdir + m.unlink + m.write;
    std::array<double, kOpKinds> cdf;
    double k = 0;
    cdf[0] = (k += m.create / mix_total);
    cdf[1] = (k += m.stat / mix_total);
    cdf[2] = (k += m.rename / mix_total);
    cdf[3] = (k += m.mkdir / mix_total);
    cdf[4] = (k += m.unlink / mix_total);
    cdf[5] = 1.0;
    kind_cdf_.push_back(cdf);
  }
  tenant_cdf_.back() = 1.0;
  for (size_t c = 0; c < clients_.size(); ++c) {
    states_.push_back(std::make_unique<ClientState>(engine_));
    states_.back()->scratch.resize(options_.tenants.size());
  }
  session_seen_.assign(options_.sessions, false);

  // Timeline series live in the cluster's registry so they ride the same
  // snapshot/report path as the service metrics.
  obs::MetricsRegistry& registry = clients_[0]->cluster()->metrics();
  tl_offered_ = registry.GetTimeSeries("load.offered", obs::SeriesKind::kCounter);
  tl_delivered_ = registry.GetTimeSeries("load.delivered", obs::SeriesKind::kCounter);
  tl_shed_ = registry.GetTimeSeries("load.shed", obs::SeriesKind::kCounter);
  tl_latency_ = registry.GetTimeSeries("load.latency", obs::SeriesKind::kSampled);
  for (size_t c = 0; c < clients_.size(); ++c) {
    std::string node = "load.node." + std::to_string(clients_[c]->node_id());
    tl_node_delivered_.push_back(
        registry.GetTimeSeries(node + ".delivered", obs::SeriesKind::kCounter));
    tl_node_shed_.push_back(registry.GetTimeSeries(node + ".shed", obs::SeriesKind::kCounter));
  }
}

std::string Generator::TenantRoot(uint16_t tenant, size_t client) const {
  std::string root = "/" + options_.tenants[tenant].name;
  if (options_.private_dirs) {
    root += "_c" + std::to_string(client);
  }
  return root;
}

std::string Generator::DirPath(uint16_t tenant, size_t client, uint64_t dir) const {
  return TenantRoot(tenant, client) + "/d" +
         std::to_string(dir % options_.tenants[tenant].dirs);
}

std::string Generator::FilePath(uint16_t tenant, size_t client, uint64_t rank) const {
  return DirPath(tenant, client, rank) + "/f" + std::to_string(rank);
}

sim::Task<> Generator::SetupTenant(uint16_t tenant, size_t client, sim::WaitGroup* wg,
                                   Status* out) {
  const TenantSpec& spec = options_.tenants[tenant];
  // Private subtrees are built by their owning client; the shared tree by a
  // tenant-chosen client (everyone else sees it after replica publication).
  core::LibFs* fs = options_.private_dirs ? clients_[client]
                                          : clients_[tenant % clients_.size()];
  *out = Status::Ok();
  Status st = co_await fs->Mkdir(TenantRoot(tenant, client));
  if (!st.ok() && st.code() != ErrorCode::kExists) {
    *out = st;
  }
  for (uint64_t d = 0; out->ok() && d < spec.dirs; ++d) {
    st = co_await fs->Mkdir(DirPath(tenant, client, d));
    if (!st.ok() && st.code() != ErrorCode::kExists) {
      *out = st;
    }
  }
  for (uint64_t f = 0; out->ok() && f < spec.files; ++f) {
    Result<int> fd = co_await fs->Open(FilePath(tenant, client, f),
                                       fslib::kOpenCreate | fslib::kOpenWrite);
    if (!fd.ok()) {
      *out = fd.status();
      break;
    }
    co_await fs->Close(*fd);
  }
  // Fsync the setup client's log so the population replicates and publishes
  // on every node before the measured run: path resolution is local (private
  // index + local public area), so other nodes' clients only see these files
  // once replica publication has applied them.
  if (out->ok() && spec.files > 0) {
    Result<int> fd = co_await fs->Open(FilePath(tenant, client, 0), fslib::kOpenWrite);
    if (fd.ok()) {
      Status synced = co_await fs->Fsync(*fd);
      if (!synced.ok()) {
        *out = synced;
      }
      co_await fs->Close(*fd);
    } else {
      *out = fd.status();
    }
  }
  wg->Done();
}

sim::Task<Status> Generator::Setup() {
  sim::WaitGroup wg(engine_);
  size_t scopes = options_.private_dirs ? clients_.size() : 1;
  std::vector<Status> results(options_.tenants.size() * scopes);
  for (size_t t = 0; t < options_.tenants.size(); ++t) {
    for (size_t c = 0; c < scopes; ++c) {
      wg.Add(1);
      engine_->Spawn(
          SetupTenant(static_cast<uint16_t>(t), c, &wg, &results[t * scopes + c]),
          "load.setup");
    }
  }
  co_await wg.Wait();
  for (const Status& st : results) {
    if (!st.ok()) {
      co_return st;
    }
  }
  co_return Status::Ok();
}

void Generator::GenerateArrival() {
  ++offered_;
  tl_offered_->Record(engine_->Now(), 1);
  Op op;
  op.arrival = engine_->Now();

  double ut = rng_.NextDouble();
  size_t tenant = 0;
  while (tenant + 1 < tenant_cdf_.size() && ut >= tenant_cdf_[tenant]) {
    ++tenant;
  }
  op.tenant = static_cast<uint16_t>(tenant);
  const TenantSpec& spec = options_.tenants[tenant];

  uint32_t session = static_cast<uint32_t>(rng_.Uniform(options_.sessions));
  op.session = session;
  if (!session_seen_[session]) {
    session_seen_[session] = true;
    ++sessions_touched_;
  }

  double uk = rng_.NextDouble();
  int kind = 0;
  while (kind + 1 < kOpKinds && uk >= kind_cdf_[tenant][kind]) {
    ++kind;
  }
  op.kind = static_cast<OpKind>(kind);

  switch (op.kind) {
    case OpKind::kStat:
      op.rank = popularity_[tenant].Sample(rng_);
      break;
    case OpKind::kWrite:
      op.rank = popularity_[tenant].Sample(rng_);
      op.fsync = rng_.Bernoulli(spec.mix.fsync_prob);
      break;
    case OpKind::kCreate:
    case OpKind::kRename:
      op.serial = serial_++;
      op.dir = rng_.Uniform(spec.dirs);
      break;
    case OpKind::kUnlink:
    case OpKind::kMkdir:
      // kUnlink's serial feeds the fallback create when the scratch pool is
      // empty, keeping the op stream deterministic either way.
      op.serial = serial_++;
      op.dir = rng_.Uniform(spec.dirs);
      break;
  }

  size_t client_idx = session % states_.size();
  ClientState* state = states_[client_idx].get();
  if (state->queue.size() >= options_.max_backlog) {
    ++shed_;
    tl_shed_->Record(engine_->Now(), 1);
    tl_node_shed_[client_idx]->Record(engine_->Now(), 1);
    return;
  }
  state->queue.push_back(op);
  state->items.Release();
}

sim::Task<> Generator::ArrivalProcess() {
  sim::Time start = engine_->Now();
  sim::Time end = start + options_.duration;
  double off_rate = options_.arrival_rate;
  double on_rate = options_.arrival_rate;
  sim::Time cycle = options_.burst_on + options_.burst_off;
  if (options_.bursty && cycle > 0 && options_.burst_factor > 0) {
    double on = static_cast<double>(options_.burst_on);
    double off = static_cast<double>(options_.burst_off);
    off_rate = options_.arrival_rate * (on + off) / (options_.burst_factor * on + off);
    on_rate = off_rate * options_.burst_factor;
  }
  while (true) {
    double rate = options_.arrival_rate;
    if (options_.bursty && cycle > 0) {
      rate = (engine_->Now() - start) % cycle < options_.burst_on ? on_rate : off_rate;
    }
    if (rate <= 0) {
      break;
    }
    double gap_sec = rng_.Exponential(1.0 / rate);
    sim::Time gap = std::max<sim::Time>(
        1, static_cast<sim::Time>(gap_sec * static_cast<double>(sim::kSecond)));
    if (engine_->Now() + gap >= end) {
      break;
    }
    co_await engine_->SleepFor(gap);
    GenerateArrival();
  }
  // Run out the clock so Run()'s rate math uses the configured duration.
  if (engine_->Now() < end) {
    co_await engine_->SleepFor(end - engine_->Now());
  }
}

sim::Task<Status> Generator::CreateScratch(core::LibFs* fs, size_t client, ClientState* state,
                                           const Op& op) {
  std::string path = DirPath(op.tenant, client, op.dir) + "/s" + std::to_string(op.serial);
  Result<int> fd = co_await fs->Open(path, fslib::kOpenCreate | fslib::kOpenWrite);
  if (!fd.ok()) {
    co_return fd.status();
  }
  Status st = co_await fs->Close(*fd);
  std::vector<std::string>& pool = state->scratch[op.tenant];
  if (pool.size() >= kMaxScratchPool) {
    pool.erase(pool.begin());
  }
  pool.push_back(std::move(path));
  co_return st;
}

sim::Task<Status> Generator::Execute(core::LibFs* fs, size_t client, ClientState* state,
                                     const Op& op) {
  std::vector<std::string>& pool = state->scratch[op.tenant];
  switch (op.kind) {
    case OpKind::kCreate:
      co_return co_await CreateScratch(fs, client, state, op);
    case OpKind::kStat: {
      Result<fslib::FileAttr> attr =
          co_await fs->Stat(FilePath(op.tenant, client, op.rank));
      co_return attr.status();
    }
    case OpKind::kRename: {
      if (pool.empty()) {
        co_return co_await CreateScratch(fs, client, state, op);
      }
      std::string src = std::move(pool.back());
      pool.pop_back();
      std::string dst = DirPath(op.tenant, client, op.dir) + "/r" + std::to_string(op.serial);
      Status st = co_await fs->Rename(src, dst);
      pool.push_back(st.ok() ? std::move(dst) : std::move(src));
      co_return st;
    }
    case OpKind::kMkdir:
      co_return co_await fs->Mkdir(TenantRoot(op.tenant, client) + "/x" +
                                   std::to_string(op.serial));
    case OpKind::kUnlink: {
      if (pool.empty()) {
        co_return co_await CreateScratch(fs, client, state, op);
      }
      std::string victim = std::move(pool.back());
      pool.pop_back();
      co_return co_await fs->Unlink(victim);
    }
    case OpKind::kWrite: {
      const TenantSpec& spec = options_.tenants[op.tenant];
      Result<int> fd =
          co_await fs->Open(FilePath(op.tenant, client, op.rank), fslib::kOpenWrite);
      if (!fd.ok()) {
        co_return fd.status();
      }
      Result<uint64_t> wrote = co_await fs->PwriteGen(*fd, spec.write_bytes, 0,
                                                      static_cast<uint8_t>(op.serial));
      Status st = wrote.status();
      if (st.ok() && op.fsync) {
        st = co_await fs->Fsync(*fd);
      }
      co_await fs->Close(*fd);
      co_return st;
    }
  }
  co_return Status::Error(ErrorCode::kInvalid, "unknown op kind");
}

sim::Task<> Generator::Worker(size_t client_idx) {
  core::LibFs* fs = clients_[client_idx];
  ClientState* state = states_[client_idx].get();
  while (true) {
    co_await state->items.Acquire();
    if (state->queue.empty()) {
      if (draining_) {
        break;
      }
      continue;  // Spurious pill before drain; shouldn't happen, stay robust.
    }
    Op op = state->queue.front();
    state->queue.pop_front();
    Status st = co_await Execute(fs, client_idx, state, op);
    sim::Time done = engine_->Now();
    latency_.Record(done - op.arrival);
    tl_latency_->Record(done, done - op.arrival);
    if (st.ok()) {
      ++delivered_;
      ++per_op_[static_cast<int>(op.kind)];
      tl_delivered_->Record(done, 1);
      tl_node_delivered_[client_idx]->Record(done, 1);
    } else {
      ++errors_;
    }
  }
  workers_done_.Done();
}

sim::Task<Report> Generator::Run() {
  draining_ = false;
  int workers = std::max(1, options_.workers_per_client);
  for (size_t c = 0; c < clients_.size(); ++c) {
    for (int w = 0; w < workers; ++w) {
      workers_done_.Add(1);
      engine_->Spawn(Worker(c), "load.worker");
    }
  }
  co_await ArrivalProcess();
  // Drain: one poison pill per worker. Queued units are consumed first (the
  // semaphore count equals queued items + pills), so every accepted arrival
  // still completes before its worker exits.
  draining_ = true;
  for (size_t c = 0; c < clients_.size(); ++c) {
    for (int w = 0; w < workers; ++w) {
      states_[c]->items.Release();
    }
  }
  co_await workers_done_.Wait();

  Report report;
  report.offered = offered_;
  report.delivered = delivered_;
  report.errors = errors_;
  report.shed = shed_;
  report.sessions_touched = sessions_touched_;
  double secs = static_cast<double>(options_.duration) / static_cast<double>(sim::kSecond);
  if (secs > 0) {
    report.offered_rate = static_cast<double>(offered_) / secs;
    report.delivered_rate = static_cast<double>(delivered_) / secs;
  }
  report.latency = latency_.Summarize();
  for (int k = 0; k < kOpKinds; ++k) {
    report.per_op[k] = per_op_[k];
  }
  co_return report;
}

}  // namespace linefs::load
