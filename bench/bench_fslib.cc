// fslib publish microbenchmark: the host wall cost of publishing one 16KB
// append into a file that already maps E extents, for E in {1, 64, 4096},
// with payloads elided (as in the benchmark-scale config) or materialised
// (as in the tests).
//
// Each publish plans, copies and commits one data entry: it allocates 4
// blocks, merges them into the file's last extent and rewrites that extent's
// length and the inode in PM. The extent metadata is served from a DRAM
// mirror, so the cost should not depend on E. A materialised publish also
// copies the 16KB from the log into the new blocks. Reports
// fslib.ns_per_publish per case into BENCH_fslib.json; there is no committed
// baseline, so the perf gate does not read it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/pmem/region.h"

namespace linefs::bench {
namespace {

constexpr uint64_t kRegionSize = 2ULL << 30;
constexpr fslib::InodeNum kFile = 100;
constexpr uint32_t kAppendBytes = 16 << 10;
constexpr int kPublishes = 20000;
// Materialised publishes back their blocks with host memory: 2000 of them
// take 32MB.
constexpr int kMaterializedPublishes = 2000;

// Appends one entry to `log` and returns it as the pipeline would parse it.
fslib::ParsedEntry Append(fslib::LogArea* log, const fslib::LogEntryHeader& header,
                          const std::vector<uint8_t>& payload) {
  Result<uint64_t> pos = log->Append(header, payload);
  Result<std::vector<fslib::ParsedEntry>> parsed = log->ParseRange(*pos, log->tail());
  return parsed->back();
}

void BM_PublishAppend(benchmark::State& state) {
  const uint64_t extents = static_cast<uint64_t>(state.range(0));
  const bool materialize = state.range(1) != 0;
  fslib::LayoutConfig layout_config;
  layout_config.inode_count = 1024;
  layout_config.max_clients = 1;
  layout_config.log_size = 8 << 20;
  fslib::Layout layout = fslib::Layout::Compute(kRegionSize, layout_config);
  if (materialize) {
    // Fault in the host memory the publishes will back: a destroyed Region's
    // blocks go to the process-wide pool, so no case pays first touch.
    pmem::Region warm(kRegionSize);
    warm.FillDurable(0, 0, 2ULL * kMaterializedPublishes * kAppendBytes);
  }
  pmem::Region region(kRegionSize);
  fslib::PublicFs fs(&region, layout, materialize);
  fs.Mkfs();
  fslib::LogArea log(&region, layout.LogOffset(0), layout.log_size, 0, materialize);

  std::string name = "file";
  fslib::LogEntryHeader create;
  create.type = fslib::LogOpType::kCreate;
  create.inum = kFile;
  create.parent = fslib::kRootInode;
  create.ftype = fslib::FileType::kRegular;
  create.payload_len = static_cast<uint32_t>(name.size());
  std::vector<fslib::ParsedEntry> batch{
      Append(&log, create, std::vector<uint8_t>(name.begin(), name.end()))};
  if (!fs.Publish(batch, log).ok()) {
    state.SkipWithError("create failed");
    return;
  }
  log.Reclaim(log.tail());

  // E one-block extents, kept apart by a free block between their blocks.
  Result<fslib::Inode> inode = fs.inodes().Get(kFile);
  for (uint64_t i = 0; i < extents; ++i) {
    Result<uint64_t> pair = fs.allocator().Alloc(2);
    if (!pair.ok()) {
      state.SkipWithError("setup alloc failed");
      return;
    }
    fs.allocator().Free(*pair + 1);
    if (!fs.extents().InsertRange(&inode.value(), i, 1, *pair, nullptr).ok()) {
      state.SkipWithError("setup insert failed");
      return;
    }
  }
  inode->size = extents * fslib::kBlockSize;
  fs.inodes().Put(*inode);

  fslib::LogEntryHeader data;
  data.type = fslib::LogOpType::kData;
  data.inum = kFile;
  data.payload_len = kAppendBytes;
  std::vector<uint8_t> payload(kAppendBytes);
  for (uint32_t i = 0; i < kAppendBytes; ++i) {
    payload[i] = static_cast<uint8_t>(i % 251);
  }
  uint64_t offset = inode->size;
  double total_ns = 0;
  for (auto _ : state) {
    data.offset = offset;
    offset += kAppendBytes;
    batch.assign(1, Append(&log, data, payload));
    auto t0 = std::chrono::steady_clock::now();
    Status st = fs.Publish(batch, log);
    benchmark::DoNotOptimize(st);
    total_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                    .count();
    if (!st.ok()) {
      state.SkipWithError("publish failed");
      return;
    }
    log.Reclaim(log.tail());
  }
  double ns_per_publish = total_ns / static_cast<double>(state.iterations());
  state.counters["ns/publish"] = ns_per_publish;
  obs::BenchRun run;
  run.label = "publish_append/extents_" + std::to_string(extents) +
              (materialize ? "/materialized" : "");
  run.scalars.emplace_back("fslib.ns_per_publish", ns_per_publish);
  Result<fslib::Inode> file = fs.inodes().Get(kFile);
  run.scalars.emplace_back("fslib.extents", static_cast<double>(fs.extents().Load(*file).size()));
  BenchReport::Get().AddRun(std::move(run));
}

}  // namespace
}  // namespace linefs::bench

// Arguments: extents E, materialize (0 = elided, 1 = materialised).
BENCHMARK(linefs::bench::BM_PublishAppend)
    ->ArgsProduct({{1, 64, 4096}, {0}})
    ->Iterations(linefs::bench::kPublishes)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(linefs::bench::BM_PublishAppend)
    ->ArgsProduct({{1, 64, 4096}, {1}})
    ->Iterations(linefs::bench::kMaterializedPublishes)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return linefs::bench::WriteBenchReport("fslib");
}
