// End-to-end benchmark of simulated LineFS.
//
//   linefs_e2ebench --workload <seqwrite_idle|syncwrite_busy|readwrite_mix>
//                   --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//   linefs_e2ebench --list-metrics
//
// One single-threaded process drives core::Cluster and core::LibFs through
// their public API. A run repeats the workload (fresh cluster each time: set
// up, run, check, tear down) until --seconds of wall time have passed, at
// least three times (four when traced). Every repetition of one seed must
// give bit-identical virtual-time metrics; their digest is printed and a
// mismatch fails the run. Wall-time metrics are medians over repetitions.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced repetitions, prints the per-layer metrics and the tracing overhead,
// and writes the benchmark's own spans to --spans-out. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
// is non-zero when any output check failed. README.md describes the workloads
// and every metric.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/kworker.h"
#include "src/core/lease.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/obs/critical_path.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/workloads/streamcluster.h"
#include "stats.h"

namespace linefs::e2ebench {
namespace {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workload sizes (README.md gives the reasoning) ---------------------------

constexpr uint64_t kIo16K = 16 << 10;
constexpr uint64_t kIo4K = 4 << 10;

// seqwrite_idle: Fig. 4 at network saturation.
constexpr int kSeqClients = 4;
constexpr uint64_t kSeqBytesPerClient = 128ULL << 20;
constexpr uint64_t kSeqFsyncEvery = 4ULL << 20;
constexpr sim::Time kSeqMaxStagger = 200 * sim::kMicrosecond;

// syncwrite_busy: Table 3, replicas busy.
constexpr uint64_t kSyncPairs = 4000;
// Think time before each pair, uniform in [0, kSyncMaxThink).
constexpr sim::Time kSyncMaxThink = 20 * sim::kMicrosecond;
// Measured pair latency plus mean think time, and the co-runner's slowdown:
// they size the co-runner so it ends just after the measured phase.
constexpr sim::Time kSyncPairEstimate = 113 * sim::kMicrosecond;
constexpr double kCoRunnerSlowdownEstimate = 1.25;
constexpr sim::Time kCoRunnerWarmup = 50 * sim::kMillisecond;
constexpr sim::Time kCoRunnerWarmupJitter = sim::kMillisecond;

// Read-back check after the write-only workloads: random 16KB Preads of what
// was written (the source of their read metrics).
constexpr uint64_t kReadBackReads = 1024;

// readwrite_mix: reads beside fsync-heavy writes on one node.
constexpr int kMixFiles = 4;
constexpr uint64_t kMixFileBytes = 8ULL << 20;
constexpr uint64_t kMixPrewriteIo = 256 << 10;
constexpr uint64_t kMixWriterPairs = 2000;
constexpr uint64_t kMixSmallRead = 4 << 10;
constexpr uint64_t kMixLargeRead = 128 << 10;
constexpr uint64_t kMixMinReads = 1024;

// I/O sizes are drawn around their nominal size, so that the seed moves each
// percentile a little instead of leaving it on one step of the cost model.
// ByteSize: uniform in [3/4, 5/4] x nominal at byte granularity. BlockSize:
// the same range in whole 4KB blocks (16KB -> 12, 16 or 20KB).
// Every write starts on a block boundary: an append that shares a block with
// the previous one makes publication copy that block twice.
uint64_t ByteSize(sim::Rng& rng, uint64_t nominal) {
  return nominal - nominal / 4 + rng.Uniform(nominal / 2 + 1);
}
uint64_t BlockSize(sim::Rng& rng, uint64_t nominal) {
  uint64_t steps = nominal / 4 / fslib::kBlockSize;
  return nominal - steps * fslib::kBlockSize + rng.Uniform(2 * steps + 1) * fslib::kBlockSize;
}
uint64_t BlockRound(uint64_t bytes) { return fslib::BlocksFor(bytes) * fslib::kBlockSize; }

constexpr sim::Time kTaskDeadline = 600 * sim::kSecond;
constexpr sim::Time kPublishWaitLimit = 5 * sim::kSecond;

enum class Workload { kSeqWriteIdle, kSyncWriteBusy, kReadWriteMix };

struct Options {
  Workload workload = Workload::kSeqWriteIdle;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// --- The benchmark's own spans ------------------------------------------------

enum class SpanName : uint8_t { kSetup, kRun, kTeardown, kOpen, kClose, kMkdir, kPwrite, kFsync,
                                kPread, kStat };
constexpr const char* kSpanNames[] = {"setup",  "run",   "teardown", "open",  "close",
                                      "mkdir",  "pwrite", "fsync",   "pread", "stat"};

struct BenchSpan {
  uint64_t id = 0;
  uint64_t parent = 0;  // Enclosing phase span; 0 for a phase.
  SpanName name = SpanName::kSetup;
  int client = -1;
  sim::Time v_begin = 0;
  sim::Time v_end = 0;
  int64_t w_begin = 0;
  int64_t w_end = 0;
  bool ok = true;
};

// Counts attempted and failed operations (LibFs calls and output checks) and,
// when traced, records a span per LibFs call and per phase.
class Recorder {
 public:
  Recorder(sim::Engine* engine, bool traced) : engine_(engine), traced_(traced) {}

  struct Mark {
    sim::Time v = 0;
    int64_t w = 0;
  };
  Mark Begin() const { return {engine_->Now(), traced_ ? WallNs() : 0}; }

  // Closes one LibFs call; returns its virtual latency.
  sim::Time EndOp(const Mark& m, SpanName name, int client, bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
    if (traced_) {
      spans_.push_back({++last_id_, phase_id_, name, client, m.v, engine_->Now(), m.w, WallNs(),
                        ok});
    }
    return engine_->Now() - m.v;
  }

  // One output check: counted as an attempted operation, failed when !ok.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (errors_.size() < 8) {
        errors_.push_back(what);
      }
    }
  }

  void BeginPhase(SpanName name) {
    phase_ = {++last_id_, 0, name, -1, engine_->Now(), 0, WallNs(), 0, true};
    phase_id_ = phase_.id;
  }
  // Returns the phase's wall seconds.
  double EndPhase() {
    phase_.v_end = engine_->Now();
    phase_.w_end = WallNs();
    phase_id_ = 0;
    if (traced_) {
      spans_.push_back(phase_);
    }
    return static_cast<double>(phase_.w_end - phase_.w_begin) / 1e9;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::vector<BenchSpan> TakeSpans() { return std::move(spans_); }

 private:
  sim::Engine* engine_;
  bool traced_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t last_id_ = 0;
  uint64_t phase_id_ = 0;
  BenchSpan phase_;
  std::vector<BenchSpan> spans_;
  std::vector<std::string> errors_;
};

// Awaits one LibFs call under a span; `latency` receives its virtual duration.
template <typename T>
sim::Task<T> Call(Recorder* rec, SpanName name, int client, sim::Task<T> call,
                  sim::Time* latency = nullptr) {
  Recorder::Mark mark = rec->Begin();
  T result = co_await std::move(call);
  sim::Time d = rec->EndOp(mark, name, client, result.ok());
  if (latency != nullptr) {
    *latency = d;
  }
  co_return result;
}

// The bytes LibFs::PwriteGen stores for pattern `seed`: byte `pos` of a file
// is seed + (pos * 131) % 251, which repeats every 251 bytes. Tiled once, any
// range [pos, pos + len) with len <= max_len is the slice at pos % 251.
class Pattern {
 public:
  static constexpr uint64_t kPeriod = 251;
  Pattern(uint8_t seed, uint64_t max_len) : tiled_(kPeriod + max_len) {
    for (uint64_t i = 0; i < tiled_.size(); ++i) {
      tiled_[i] = static_cast<uint8_t>(seed + (i * 131) % kPeriod);
    }
  }
  bool Matches(std::span<const uint8_t> data, uint64_t pos) const {
    return data.size() + kPeriod <= tiled_.size() &&
           std::memcmp(data.data(), tiled_.data() + pos % kPeriod, data.size()) == 0;
  }

 private:
  std::vector<uint8_t> tiled_;
};

struct ProcUsage {
  double sys_s = 0;
  int64_t minor_faults = 0;
};
ProcUsage Usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) / 1e6,
          static_cast<int64_t>(ru.ru_minflt)};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux.
}

// One metric value per catalogue entry (absent when not measured).
using Values = std::vector<std::optional<double>>;

struct RepOutput {
  Values values = Values(kMetricCount);
  std::map<std::string, std::string> notes;  // Percentile and sample-count notes.
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<BenchSpan> spans;
};

// --- One repetition: set up, run, check, tear down ---------------------------

class Rep {
 public:
  Rep(const Options& options, bool traced)
      : opt_(options), traced_(traced), rec_(&engine_, traced) {}
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  RepOutput Execute();

 private:
  struct FileSpec {
    std::string path;
    int client = 0;
    int fd = -1;
    uint64_t bytes = 0;
    uint8_t pattern = 0;
  };

  core::DfsConfig Config() const;
  // Per-stream generator: the same seed gives the same inputs.
  sim::Rng StreamRng(uint64_t stream) const {
    return sim::Rng(opt_.seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1);
  }
  void SetUp();
  void RunWorkload();
  void RunTasks(std::vector<sim::Task<>> tasks);
  void StepUntil(sim::Time t);
  bool Published() const;
  void CheckOutputs();
  void CollectMetrics();

  sim::Task<> SeqWriter(int c);
  sim::Task<> SyncWriter();
  sim::Task<> ReadBack(int c, int fd, uint64_t file_bytes, uint64_t reads, uint64_t stream);
  sim::Task<> Prewrite();
  sim::Task<> MixReader();
  sim::Task<> MixWriter();
  sim::Task<> StatFiles();
  sim::Task<> CloseFiles();

  void CountWrite(uint64_t len) {
    issued_bytes_ += len;
    block_bytes_ += BlockRound(len);
  }
  void Set(std::string_view name, double v) { out_.values[MetricIndex(name)] = v; }
  // Percentile of virtual-time samples (ns), reported in microseconds.
  void SetPct(std::string_view name, const sim::LatencyRecorder& r, double want) {
    double q = TailPercentile(r.count(), want);
    Set(name, static_cast<double>(r.Percentile(q)) / 1e3);
    char note[96];
    std::snprintf(note, sizeof(note), "p%.2f of %zu samples", q, r.count());
    out_.notes[std::string(name)] = note;
  }

  const Options& opt_;
  bool traced_;
  sim::Engine engine_;
  Recorder rec_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<std::unique_ptr<workloads::Streamcluster>> corunners_;
  std::vector<core::LibFs*> clients_;
  std::vector<FileSpec> files_;
  // Measured-phase samples (virtual ns).
  sim::LatencyRecorder fsync_pairs_;
  sim::LatencyRecorder writes_;
  sim::LatencyRecorder reads_;
  uint64_t user_bytes_ = 0;  // Written in the measured phase.
  // Every write, set-up included: the bytes issued, and the same rounded up
  // to whole blocks per write (what each replica's kernel worker copies).
  uint64_t issued_bytes_ = 0;
  uint64_t block_bytes_ = 0;
  sim::Time phase_start_ = 0;
  sim::Time write_end_ = 0;
  int writers_running_ = 0;
  int64_t engine_wall_ns_ = 0;
  uint64_t events_at_run_ = 0;
  RepOutput out_;
};

core::DfsConfig Rep::Config() const {
  // Benchmark scale, as in the repo's figure benchmarks: payload bytes
  // elided, 6GB PM per node, 64MB client logs, 4MB pipeline chunks.
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 6ULL << 30;
  config.log_size = 64ULL << 20;
  config.inode_count = 1 << 20;
  config.chunk_size = 4ULL << 20;
  config.materialize_data = false;
  config.host_fs_priority = sim::Priority::kNormal;
  if (opt_.workload == Workload::kReadWriteMix) {
    config.materialize_data = true;  // Reads are checked byte for byte.
    config.read_path = "adaptive";
  }
  return config;
}

void Rep::StepUntil(sim::Time t) {
  int64_t w0 = WallNs();
  engine_.RunUntil(t);
  engine_wall_ns_ += WallNs() - w0;
}

void Rep::RunTasks(std::vector<sim::Task<>> tasks) {
  int64_t w0 = WallNs();
  int remaining = static_cast<int>(tasks.size());
  for (sim::Task<>& task : tasks) {
    engine_.Spawn(
        [](sim::Task<> t, int* remaining) -> sim::Task<> {
          co_await std::move(t);
          --*remaining;
        }(std::move(task), &remaining),
        "client");
  }
  sim::Time deadline = engine_.Now() + kTaskDeadline;
  while (remaining > 0 && engine_.Now() < deadline && engine_.RunOne()) {
  }
  engine_wall_ns_ += WallNs() - w0;
  if (remaining > 0) {
    // Suspended tasks still point into this repetition: nothing can be
    // reported safely.
    std::fprintf(stderr, "e2ebench: %d client tasks did not complete (deadlock)\n", remaining);
    std::exit(1);
  }
}

sim::Task<> Rep::ReadBack(int c, int fd, uint64_t file_bytes, uint64_t reads, uint64_t stream) {
  core::LibFs* fs = clients_[c];
  sim::Rng rng = StreamRng(stream);
  std::vector<uint8_t> buf(kIo16K + kIo16K / 4);
  for (uint64_t i = 0; i < reads; ++i) {
    uint64_t len = ByteSize(rng, kIo16K);
    uint64_t off = rng.Uniform(file_bytes - len + 1);
    sim::Time lat = 0;
    Result<uint64_t> r = co_await Call(&rec_, SpanName::kPread, c,
                                       fs->Pread(fd, std::span<uint8_t>(buf.data(), len), off),
                                       &lat);
    reads_.Record(lat);
    rec_.Check(r.ok() && *r == len, "read-back returned a short read");
  }
}

sim::Task<> Rep::SeqWriter(int c) {
  core::LibFs* fs = clients_[c];
  FileSpec& file = files_[c];
  sim::Rng rng = StreamRng(100 + c);
  co_await engine_.SleepFor(static_cast<sim::Time>(rng.Uniform(kSeqMaxStagger)));
  Result<int> fd = co_await Call(&rec_, SpanName::kOpen, c,
                                 fs->Open(file.path, fslib::kOpenCreate | fslib::kOpenWrite |
                                                         fslib::kOpenRead));
  if (!fd.ok()) {
    co_return;
  }
  file.fd = *fd;
  while (file.bytes < kSeqBytesPerClient) {
    uint64_t len = BlockSize(rng, kIo16K);
    sim::Time w = 0;
    Result<uint64_t> r = co_await Call(&rec_, SpanName::kPwrite, c,
                                       fs->PwriteGen(*fd, len, file.bytes, file.pattern), &w);
    writes_.Record(w);
    if (!r.ok()) {
      co_return;
    }
    user_bytes_ += len;
    CountWrite(len);
    file.bytes += len;
    if (file.bytes / kSeqFsyncEvery != (file.bytes - len) / kSeqFsyncEvery) {
      sim::Time f = 0;
      co_await Call(&rec_, SpanName::kFsync, c, fs->Fsync(*fd), &f);
      fsync_pairs_.Record(w + f);
    }
  }
  write_end_ = std::max(write_end_, engine_.Now());
  co_await ReadBack(c, *fd, file.bytes, kReadBackReads / kSeqClients, 200 + c);
}

sim::Task<> Rep::SyncWriter() {
  core::LibFs* fs = clients_[0];
  FileSpec& file = files_[0];
  Result<int> fd = co_await Call(&rec_, SpanName::kOpen, 0,
                                 fs->Open(file.path, fslib::kOpenCreate | fslib::kOpenWrite |
                                                         fslib::kOpenRead));
  if (!fd.ok()) {
    co_return;
  }
  file.fd = *fd;
  sim::Rng rng = StreamRng(100);
  // Records of any length, each starting on a block boundary (the tail of
  // its last block stays a hole), like a log that pads commits to blocks.
  uint64_t off = 0;
  for (uint64_t i = 0; i < kSyncPairs; ++i) {
    co_await engine_.SleepFor(static_cast<sim::Time>(rng.Uniform(kSyncMaxThink)));
    uint64_t len = ByteSize(rng, kIo16K);
    sim::Time w = 0;
    sim::Time f = 0;
    Result<uint64_t> r = co_await Call(&rec_, SpanName::kPwrite, 0,
                                       fs->PwriteGen(*fd, len, off, file.pattern), &w);
    writes_.Record(w);
    if (!r.ok()) {
      co_return;
    }
    user_bytes_ += len;
    CountWrite(len);
    file.bytes = off + len;
    off += BlockRound(len);
    co_await Call(&rec_, SpanName::kFsync, 0, fs->Fsync(*fd), &f);
    fsync_pairs_.Record(w + f);
  }
  write_end_ = engine_.Now();
  co_await ReadBack(0, *fd, file.bytes, kReadBackReads, 200);
}

sim::Task<> Rep::Prewrite() {
  core::LibFs* fs = clients_[0];
  co_await Call(&rec_, SpanName::kMkdir, 0, fs->Mkdir("/mix"));
  for (int f = 0; f < kMixFiles; ++f) {
    FileSpec& file = files_[f];
    Result<int> fd = co_await Call(&rec_, SpanName::kOpen, 0,
                                   fs->Open(file.path, fslib::kOpenCreate | fslib::kOpenWrite |
                                                           fslib::kOpenRead));
    if (!fd.ok()) {
      co_return;
    }
    file.fd = *fd;
    for (uint64_t off = 0; off < kMixFileBytes; off += kMixPrewriteIo) {
      co_await Call(&rec_, SpanName::kPwrite, 0,
                    fs->PwriteGen(*fd, kMixPrewriteIo, off, file.pattern));
      CountWrite(kMixPrewriteIo);
    }
    co_await Call(&rec_, SpanName::kFsync, 0, fs->Fsync(*fd));
  }
}

sim::Task<> Rep::MixWriter() {
  constexpr int c = 1;
  core::LibFs* fs = clients_[c];
  FileSpec& file = files_.back();
  Result<int> fd = co_await Call(&rec_, SpanName::kOpen, c,
                                 fs->Open(file.path, fslib::kOpenCreate | fslib::kOpenWrite));
  if (fd.ok()) {
    file.fd = *fd;
    for (uint64_t i = 0; i < kMixWriterPairs; ++i) {
      sim::Time w = 0;
      sim::Time f = 0;
      Result<uint64_t> r = co_await Call(&rec_, SpanName::kPwrite, c,
                                         fs->PwriteGen(*fd, kIo4K, file.bytes, file.pattern), &w);
      writes_.Record(w);
      if (!r.ok()) {
        break;
      }
      user_bytes_ += kIo4K;
      CountWrite(kIo4K);
      file.bytes += kIo4K;
      co_await Call(&rec_, SpanName::kFsync, c, fs->Fsync(*fd), &f);
      fsync_pairs_.Record(w + f);
    }
  }
  write_end_ = engine_.Now();
  --writers_running_;
}

sim::Task<> Rep::MixReader() {
  constexpr int c = 0;
  core::LibFs* fs = clients_[c];
  sim::Rng rng = StreamRng(300);
  std::vector<uint8_t> buf(kMixLargeRead + kMixLargeRead / 4);
  std::vector<Pattern> patterns;
  for (int f = 0; f < kMixFiles; ++f) {
    patterns.emplace_back(files_[f].pattern, buf.size());
  }
  uint64_t n = 0;
  // Closed loop for as long as the writer runs, and at least kMixMinReads.
  // Three small reads to one large one: the median is a small read and the
  // tail a large one, never the boundary between the two.
  while (writers_running_ > 0 || n < kMixMinReads) {
    uint64_t f = rng.Uniform(kMixFiles);
    const FileSpec& file = files_[f];
    uint64_t len = ByteSize(rng, rng.Uniform(4) == 0 ? kMixLargeRead : kMixSmallRead);
    uint64_t off = rng.Uniform(file.bytes - len + 1);
    std::span<uint8_t> out(buf.data(), len);
    sim::Time lat = 0;
    Result<uint64_t> r = co_await Call(&rec_, SpanName::kPread, c, fs->Pread(file.fd, out, off),
                                       &lat);
    reads_.Record(lat);
    rec_.Check(r.ok() && *r == len && patterns[f].Matches(out, off),
               "read of " + file.path + " does not match its PwriteGen pattern");
    ++n;
  }
}

sim::Task<> Rep::StatFiles() {
  for (const FileSpec& file : files_) {
    Result<fslib::FileAttr> attr =
        co_await Call(&rec_, SpanName::kStat, file.client, clients_[file.client]->Stat(file.path));
    rec_.Check(attr.ok() && attr->size == file.bytes,
               "Stat size of " + file.path + " differs from the bytes written");
  }
}

sim::Task<> Rep::CloseFiles() {
  for (const FileSpec& file : files_) {
    if (file.fd >= 0) {
      co_await Call(&rec_, SpanName::kClose, file.client, clients_[file.client]->Close(file.fd));
    }
  }
}

void Rep::SetUp() {
  cluster_ = std::make_unique<core::Cluster>(&engine_, Config());
  Status st = cluster_->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "e2ebench: invalid config: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  sim::Rng rng = StreamRng(1);
  auto pattern = [&rng] { return static_cast<uint8_t>(rng.Uniform(256)); };
  switch (opt_.workload) {
    case Workload::kSeqWriteIdle:
      for (int c = 0; c < kSeqClients; ++c) {
        clients_.push_back(cluster_->CreateClient(0));
        files_.push_back({"/seq" + std::to_string(c) + ".dat", c, -1, 0, pattern()});
      }
      break;
    case Workload::kSyncWriteBusy: {
      clients_.push_back(cluster_->CreateClient(0));
      files_.push_back({"/sync.dat", 0, -1, 0, pattern()});
      // Streamcluster on both replicas at the DFS's priority (Table 3 busy),
      // sized to end just after the measured phase.
      workloads::Streamcluster::Options co;
      co.threads = 48;
      co.work_per_iteration = 100 * sim::kMillisecond;
      co.bytes_per_iteration = 80ULL << 20;
      sim::Time cover = kCoRunnerWarmup + kCoRunnerWarmupJitter +
                        static_cast<sim::Time>(kSyncPairs) * kSyncPairEstimate;
      co.iterations = static_cast<int>(std::ceil(
          static_cast<double>(cover) /
          (static_cast<double>(co.work_per_iteration) * kCoRunnerSlowdownEstimate)));
      for (int n : {1, 2}) {
        corunners_.push_back(
            std::make_unique<workloads::Streamcluster>(&cluster_->hw_node(n), co));
        engine_.Spawn(corunners_.back()->Run(), "streamcluster");
      }
      // Warm-up: let the co-runner saturate the replica cores first. The
      // seed shifts where the measured phase starts against its quanta.
      StepUntil(engine_.Now() + kCoRunnerWarmup +
                static_cast<sim::Time>(rng.Uniform(kCoRunnerWarmupJitter)));
      break;
    }
    case Workload::kReadWriteMix: {
      clients_.push_back(cluster_->CreateClient(0));  // Reader; pre-writes the file set.
      clients_.push_back(cluster_->CreateClient(0));  // Writer.
      for (int f = 0; f < kMixFiles; ++f) {
        files_.push_back({"/mix/f" + std::to_string(f) + ".dat", 0, -1, kMixFileBytes, pattern()});
      }
      std::vector<sim::Task<>> tasks;
      tasks.push_back(Prewrite());
      RunTasks(std::move(tasks));
      // The file set is in the public area before the first measured read.
      sim::Time limit = engine_.Now() + kPublishWaitLimit;
      while (!Published() && engine_.Now() < limit) {
        StepUntil(engine_.Now() + sim::kMillisecond);
      }
      rec_.Check(Published(), "pre-written file set was not published");
      files_.push_back({"/mix/w.dat", 1, -1, 0, pattern()});
      break;
    }
  }
}

bool Rep::Published() const {
  core::LibFs* fs = clients_[0];
  return cluster_->nicfs(0)->published_upto(fs->client_id()) >= fs->log().tail();
}

void Rep::RunWorkload() {
  phase_start_ = engine_.Now();
  events_at_run_ = engine_.events_processed();
  engine_wall_ns_ = 0;  // sim.ns_per_event covers the events after set-up only.
  std::vector<sim::Task<>> tasks;
  switch (opt_.workload) {
    case Workload::kSeqWriteIdle:
      for (int c = 0; c < kSeqClients; ++c) {
        tasks.push_back(SeqWriter(c));
      }
      break;
    case Workload::kSyncWriteBusy:
      tasks.push_back(SyncWriter());
      break;
    case Workload::kReadWriteMix:
      writers_running_ = 1;
      tasks.push_back(MixWriter());
      tasks.push_back(MixReader());
      break;
  }
  RunTasks(std::move(tasks));
}

void Rep::CheckOutputs() {
  std::vector<sim::Task<>> tasks;
  tasks.push_back(StatFiles());
  RunTasks(std::move(tasks));
  // Each replica's kernel worker publishes every byte libfs wrote, in whole
  // blocks per write. Replicas publish asynchronously: let them finish.
  core::Cluster& c = *cluster_;
  uint64_t written = 0;
  for (int i = 0; i < c.client_count(); ++i) {
    written += c.client(i)->stats().bytes_written;
  }
  rec_.Check(written == issued_bytes_, "libfs counted " + std::to_string(written) +
                                          " bytes written, the benchmark issued " +
                                          std::to_string(issued_bytes_));
  auto replicas_done = [&] {
    for (int n = 1; n < c.num_nodes(); ++n) {
      if (c.kworker(n)->bytes_copied() < block_bytes_) {
        return false;
      }
    }
    return true;
  };
  sim::Time limit = engine_.Now() + kPublishWaitLimit;
  while (!replicas_done() && engine_.Now() < limit) {
    StepUntil(engine_.Now() + sim::kMillisecond);
  }
  for (int n = 1; n < c.num_nodes(); ++n) {
    uint64_t copied = c.kworker(n)->bytes_copied();
    rec_.Check(copied == block_bytes_, "replica " + std::to_string(n) + " kworker copied " +
                                           std::to_string(copied) + " bytes, libfs wrote " +
                                           std::to_string(written) + " (" +
                                           std::to_string(block_bytes_) + " in whole blocks)");
  }
  tasks.push_back(CloseFiles());
  RunTasks(std::move(tasks));
}

void Rep::CollectMetrics() {
  core::Cluster& c = *cluster_;
  Set("sim.events", static_cast<double>(engine_.events_processed() - events_at_run_));
  Set("sim.schedule_clamped", static_cast<double>(engine_.schedule_clamps()));
  rec_.Check(engine_.schedule_clamps() == 0, "the engine clamped events scheduled in the past");

  // libfs
  uint64_t bytes_written = 0;
  uint64_t stalls = 0;
  uint64_t fsyncs = 0;
  uint64_t nic_routed = 0;
  for (int i = 0; i < c.client_count(); ++i) {
    core::LibFs::Stats s = c.client(i)->stats();
    bytes_written += s.bytes_written;
    stalls += s.log_stall_waits;
    fsyncs += s.fsyncs;
    nic_routed += s.reads_nic_routed;
  }
  double write_s = sim::ToSeconds(write_end_ - phase_start_);
  Set("sim_write_gbps", write_s > 0 ? static_cast<double>(user_bytes_) / write_s / 1e9 : 0);
  SetPct("sim_fsync_p50_us", fsync_pairs_, 50);
  SetPct("sim_fsync_p99_us", fsync_pairs_, 99);
  SetPct("sim_read_p50_us", reads_, 50);
  SetPct("sim_read_p99_us", reads_, 99);
  SetPct("libfs.write_p50_us", writes_, 50);
  SetPct("libfs.write_p99_us", writes_, 99);
  Set("libfs.log_stall_waits", static_cast<double>(stalls));
  Set("libfs.reads_nic_routed_frac",
      reads_.count() > 0 ? static_cast<double>(nic_routed) / static_cast<double>(reads_.count())
                         : 0);
  Set("bench.fsync_samples", static_cast<double>(fsync_pairs_.count()));
  Set("bench.read_samples", static_cast<double>(reads_.count()));
  Set("bench.write_samples", static_cast<double>(writes_.count()));

  // hw and pmem
  double host_busy = 0;
  double nic_busy = 0;
  uint64_t pcie = 0;
  uint64_t fabric = 0;
  uint64_t pm = 0;
  for (int n = 0; n < c.num_nodes(); ++n) {
    hw::Node& node = c.hw_node(n);
    host_busy += node.host_cpu().TotalBusySeconds();
    nic_busy += node.nic().cpu().TotalBusySeconds();
    pcie += node.nic().pcie_h2n().total_bytes() + node.nic().pcie_n2h().total_bytes();
    fabric += c.fabric().tx(n).total_bytes();
    pm += node.pm().total_bytes_written();
  }
  double slowdown = 0;
  for (const auto& co : corunners_) {
    slowdown += co->SlowdownVsSolo() / static_cast<double>(corunners_.size());
  }
  Set("hw.host_cpu_busy_s", host_busy);
  Set("hw.nic_cpu_busy_s", nic_busy);
  Set("hw.pcie_bytes", static_cast<double>(pcie));
  Set("hw.fabric_bytes", static_cast<double>(fabric));
  Set("hw.corunner_slowdown", slowdown);
  Set("pmem.bytes_written", static_cast<double>(pm));
  Set("pmem.bytes_per_user_byte",
      bytes_written > 0 ? static_cast<double>(pm) / static_cast<double>(bytes_written) : 0);

  // nicfs / pipeline / repl, kworker, lease
  uint64_t wire = 0;
  uint64_t stall_ns = 0;
  uint64_t nic_reads = 0;
  uint64_t retransmits = 0;
  uint64_t send_failures = 0;
  uint64_t copies = 0;
  uint64_t copied = 0;
  uint64_t grants = 0;
  uint64_t revocations = 0;
  for (int n = 0; n < c.num_nodes(); ++n) {
    core::NicFs::StatsSnapshot s = c.nicfs(n)->stats();
    wire += s.wire_bytes;
    stall_ns += s.flow_ctrl_stall_ns;
    nic_reads += s.nic_reads;
    retransmits += s.repl_retransmits;
    send_failures += s.repl_send_failures;
    copies += c.kworker(n)->copies_executed();
    copied += c.kworker(n)->bytes_copied();
    grants += c.nicfs(n)->leases().grants();
    revocations += c.nicfs(n)->leases().revocations();
  }
  // Stage latencies on the primary, where every client's pipeline runs.
  for (const char* stage : {"fetch", "validate", "transfer", "publish", "ack"}) {
    std::string base = std::string("nicfs.stage.") + stage;
    const obs::Histogram* h = c.metrics().FindHistogram(std::string("nicfs.0.stage.") + stage);
    sim::LatencyRecorder empty;
    const sim::LatencyRecorder& r = h != nullptr ? h->recorder() : empty;
    SetPct(base + ".p50_us", r, 50);
    SetPct(base + ".p99_us", r, 99);
  }
  Set("nicfs.chunks_transferred", static_cast<double>(c.nicfs(0)->stats().chunks_transferred));
  Set("nicfs.wire_bytes_per_user_byte",
      bytes_written > 0 ? static_cast<double>(wire) / static_cast<double>(bytes_written) : 0);
  Set("nicfs.flow_ctrl_stall_ms", static_cast<double>(stall_ns) / 1e6);
  Set("nicfs.nic_reads", static_cast<double>(nic_reads));
  Set("nicfs.repl_retransmits", static_cast<double>(retransmits));
  Set("nicfs.repl_send_failures", static_cast<double>(send_failures));
  Set("kworker.copies", static_cast<double>(copies));
  Set("kworker.bytes_copied", static_cast<double>(copied));
  Set("lease.grants", static_cast<double>(grants));
  Set("lease.revocations", static_cast<double>(revocations));
  Set("obs.trace_dropped", static_cast<double>(c.trace().dropped()));

  if (traced_) {
    // Critical-path shares of the fsyncs still in the program's trace ring,
    // with the share of fsyncs they cover.
    std::vector<obs::OpBreakdown> ops = obs::CriticalPathAnalyzer(&c.trace()).Operations("fsync");
    std::map<std::string, sim::Time> table = obs::CriticalPathAnalyzer::StageTable(ops);
    sim::Time total = 0;
    for (const obs::OpBreakdown& op : ops) {
      total += op.duration();
    }
    for (const char* stage : {"copy", "validate", "replicate-net", "persist", "ack", "wait"}) {
      double share = total > 0 ? 100.0 * static_cast<double>(table[stage]) /
                                     static_cast<double>(total)
                               : 0;
      Set(std::string("cp.fsync.") + stage + "_pct", share);
    }
    Set("cp.ops_covered_frac",
        fsyncs > 0 ? static_cast<double>(ops.size()) / static_cast<double>(fsyncs) : 0);
  }
}

RepOutput Rep::Execute() {
  ProcUsage u0 = Usage();
  rec_.BeginPhase(SpanName::kSetup);
  SetUp();
  Set("setup_s", rec_.EndPhase());

  int64_t run_start = WallNs();
  rec_.BeginPhase(SpanName::kRun);
  RunWorkload();
  Set("sim.run_wall_s", rec_.EndPhase());

  rec_.BeginPhase(SpanName::kTeardown);
  CheckOutputs();
  // Shutdown, co-runner drain, report building and destruction all count.
  cluster_->Shutdown();
  int64_t w0 = WallNs();
  engine_.Run();
  engine_wall_ns_ += WallNs() - w0;
  CollectMetrics();
  corunners_.clear();
  clients_.clear();
  cluster_.reset();
  Set("obs.teardown_wall_s", rec_.EndPhase());
  Set("wall_s", static_cast<double>(WallNs() - run_start) / 1e9);

  ProcUsage u1 = Usage();
  double events = *out_.values[MetricIndex("sim.events")];
  Set("sim.ns_per_event", events > 0 ? static_cast<double>(engine_wall_ns_) / events : 0);
  Set("proc.sys_s", u1.sys_s - u0.sys_s);
  Set("proc.minor_faults", static_cast<double>(u1.minor_faults - u0.minor_faults));

  Digest digest;
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (kMetrics[i].source == Source::kVirtual && out_.values[i].has_value()) {
      digest.Add(*out_.values[i]);
    }
  }
  digest.Add(static_cast<double>(rec_.attempted()));
  out_.digest = digest.value();
  out_.attempted = rec_.attempted();
  out_.failed = rec_.failed();
  out_.errors = rec_.errors();
  out_.spans = rec_.TakeSpans();
  return std::move(out_);
}

// --- Reporting ---------------------------------------------------------------

void PrintNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

bool WriteSpans(const std::string& path, const Options& opt, const std::vector<BenchSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"fields\": [\"id\", \"parent\", \"name\", \"client\", \"v_begin_ns\", "
               "\"v_end_ns\", \"w_begin_ns\", \"w_end_ns\", \"ok\"],\n \"spans\": [",
               opt.workload_name.c_str(), opt.seed);
  for (size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    std::fprintf(f,
                 "%s\n  [%" PRIu64 ", %" PRIu64 ", \"%s\", %d, %" PRId64 ", %" PRId64 ", %" PRId64
                 ", %" PRId64 ", %d]",
                 i == 0 ? "" : ",", s.id, s.parent, kSpanNames[static_cast<int>(s.name)], s.client,
                 s.v_begin, s.v_end, s.w_begin, s.w_end, s.ok ? 1 : 0);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

int ListMetrics() {
  std::printf("[");
  for (size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& m = kMetrics[i];
    const char* kind = m.kind == Kind::kEndToEnd ? "end_to_end"
                       : m.kind == Kind::kLayer  ? "per_layer"
                                                 : "info";
    std::printf("%s\n {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"kind\": \"%s\"}",
                i == 0 ? "" : ",", m.name, m.unit, m.lower_is_better ? "lower" : "higher", kind);
  }
  std::printf("\n]\n");
  return 0;
}

int UsageError(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: linefs_e2ebench --workload "
               "<seqwrite_idle|syncwrite_busy|readwrite_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>] | --list-metrics\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      return ListMetrics();
    }
    if (i + 1 >= argc) {
      return UsageError(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload_name = value;
      have_workload = true;
      if (value == "seqwrite_idle") {
        opt.workload = Workload::kSeqWriteIdle;
      } else if (value == "syncwrite_busy") {
        opt.workload = Workload::kSyncWriteBusy;
      } else if (value == "readwrite_mix") {
        opt.workload = Workload::kReadWriteMix;
      } else {
        return UsageError(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value != "0";
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      return UsageError(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    return UsageError("--workload is required");
  }

  // Repetitions: at least three (five when traced), then as many as fit in
  // --seconds. Traced runs alternate untraced/traced, starting untraced.
  const size_t min_reps = opt.trace ? 5 : 3;
  std::vector<RepOutput> reps;
  std::vector<bool> traced;
  std::vector<BenchSpan> last_spans;
  int64_t start = WallNs();
  double longest = 0;
  while (true) {
    double elapsed = static_cast<double>(WallNs() - start) / 1e9;
    if (reps.size() >= min_reps && elapsed + longest > opt.seconds) {
      break;
    }
    bool t = opt.trace && reps.size() % 2 == 1;
    int64_t r0 = WallNs();
    RepOutput out = Rep(opt, t).Execute();
    longest = std::max(longest, static_cast<double>(WallNs() - r0) / 1e9);
    std::printf("rep %zu traced=%d setup_s=%.4f wall_s=%.4f sys_s=%.3f minor_faults=%.0f "
                "digest=%016" PRIx64 "\n",
                reps.size(), t ? 1 : 0, *out.values[MetricIndex("setup_s")],
                *out.values[MetricIndex("wall_s")], *out.values[MetricIndex("proc.sys_s")],
                *out.values[MetricIndex("proc.minor_faults")], out.digest);
    if (t) {
      last_spans = std::move(out.spans);
    }
    reps.push_back(std::move(out));
    traced.push_back(t);
  }

  // Combine: a metric measured in untraced repetitions is their median, one
  // measured only when traced is the traced median.
  Values final_values(kMetricCount);
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  // The first repetition pays the process's cold start (page faults, heap
  // growth) and has no traced counterpart: the overhead leaves it out.
  for (size_t r = 1; r < reps.size(); ++r) {
    (traced[r] ? wall_traced : wall_untraced).push_back(*reps[r].values[MetricIndex("wall_s")]);
  }
  for (size_t i = 0; i < kMetricCount; ++i) {
    std::vector<double> plain;
    std::vector<double> with_trace;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (reps[r].values[i].has_value()) {
        (traced[r] ? with_trace : plain).push_back(*reps[r].values[i]);
      }
    }
    if (!plain.empty()) {
      final_values[i] = Median(plain);
    } else if (!with_trace.empty()) {
      final_values[i] = Median(with_trace);
    }
  }
  if (opt.trace) {
    final_values[MetricIndex("obs.bench_trace_overhead_s")] =
        Median(wall_traced) - Median(wall_untraced);
  }
  final_values[MetricIndex("peak_rss_mb")] = PeakRssMb();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  for (const RepOutput& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
    deterministic = deterministic && rep.digest == reps[0].digest;
    for (const std::string& e : rep.errors) {
      std::fprintf(stderr, "e2ebench: check failed: %s\n", e.c_str());
    }
  }
  if (!deterministic) {
    std::fprintf(stderr, "e2ebench: repetitions of seed %" PRIu64
                         " produced different virtual-time metrics\n", opt.seed);
    ++failed;
  }
  final_values[MetricIndex("ops_failed_frac")] =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;

  std::printf("workload %s seed %" PRIu64 " reps %zu\n", opt.workload_name.c_str(), opt.seed,
              reps.size());
  std::printf("digest %016" PRIx64 " (virtual-time metrics, %s across repetitions)\n",
              reps[0].digest, deterministic ? "identical" : "DIFFERENT");
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (!final_values[i].has_value()) {
      continue;
    }
    auto note = reps[0].notes.find(kMetrics[i].name);
    std::printf("metric %-32s %.6g %s%s%s\n", kMetrics[i].name, *final_values[i], kMetrics[i].unit,
                note != reps[0].notes.end() ? "  # " : "",
                note != reps[0].notes.end() ? note->second.c_str() : "");
  }
  if (opt.trace && !opt.spans_out.empty() && !WriteSpans(opt.spans_out, opt, last_spans)) {
    std::fprintf(stderr, "e2ebench: cannot write spans to %s\n", opt.spans_out.c_str());
  }

  // The result line: end-to-end metrics untraced, per-layer metrics traced.
  const Kind wanted = opt.trace ? Kind::kLayer : Kind::kEndToEnd;
  bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (kMetrics[i].kind != wanted) {
      continue;
    }
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", kMetrics[i].name);
    PrintNumber(stdout, final_values[i].value_or(NAN));
    std::printf(", \"unit\": \"%s\"}", kMetrics[i].unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace linefs::e2ebench

int main(int argc, char** argv) { return linefs::e2ebench::Main(argc, argv); }
