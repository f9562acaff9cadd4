// compress_replication: exercise the optional data-path compression stage of
// the replication pipeline (§5.4) with inputs of different compressibility,
// and report achieved wire savings — data really flows through the LZW codec
// and is verified byte-identical on the replicas.
//
//   ./examples/compress_replication

#include <cassert>
#include <cstdio>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

using namespace linefs;

namespace {

double RunWithZeroFraction(double zero_fraction) {
  sim::Engine engine;
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 1ULL << 30;
  config.log_size = 32ULL << 20;
  config.chunk_size = 2ULL << 20;
  config.pipeline_stages = "validate,compress";  // Enable the compression stage.
  config.materialize_data = true;   // The codec needs real bytes.
  core::Cluster cluster(&engine, config);
  Status start_st = cluster.Start();
  assert(start_st.ok());
  (void)start_st;
  core::LibFs* fs = cluster.CreateClient(0);

  // Generate data with the requested fraction of zero bytes (the Fig. 9 knob).
  std::vector<uint8_t> data(24 << 20);
  sim::Rng rng(7);
  for (size_t block = 0; block < data.size(); block += 64) {
    size_t n = std::min<size_t>(64, data.size() - block);
    if (rng.Bernoulli(zero_fraction)) {
      std::fill(data.begin() + block, data.begin() + block + n, 0);
    } else {
      for (size_t i = 0; i < n; ++i) {
        data[block + i] = static_cast<uint8_t>(rng.Next() | 1);
      }
    }
  }

  bool done = false;
  engine.Spawn([](core::LibFs* fs, const std::vector<uint8_t>* data, bool* done) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/data.bin", fslib::kOpenCreate | fslib::kOpenWrite);
    if (fd.ok()) {
      Result<uint64_t> w = co_await fs->Write(*fd, *data);
      (void)w;
      Status st = co_await fs->Fsync(*fd);
      (void)st;
      co_await fs->Close(*fd);
    }
    *done = true;
  }(fs, &data, &done));
  while (!done && engine.RunOne()) {
  }
  engine.RunUntil(engine.Now() + 5 * sim::kSecond);

  // Verify replica content survived compress->transfer->decompress->publish.
  fslib::PublicFs& replica = cluster.dfs_node(2).fs();
  Result<fslib::InodeNum> inum = replica.LookupChild(fslib::kRootInode, "data.bin");
  bool intact = false;
  if (inum.ok()) {
    std::vector<uint8_t> out(data.size());
    Result<uint64_t> r = replica.ReadData(*inum, 0, out);
    intact = r.ok() && out == data;
  }

  core::NicFs::StatsSnapshot stats = cluster.nicfs(0)->stats();
  double saved = stats.raw_repl_bytes > 0
                     ? 100.0 * (1.0 - static_cast<double>(stats.wire_bytes) /
                                          static_cast<double>(stats.raw_repl_bytes))
                     : 0.0;
  std::printf("zero-fill %3.0f%%: raw %5.1f MB -> wire %5.1f MB  (saved %4.1f%%)  "
              "replica content %s\n",
              zero_fraction * 100, stats.raw_repl_bytes / 1e6, stats.wire_bytes / 1e6, saved,
              intact ? "VERIFIED" : "MISMATCH!");
  cluster.Shutdown();
  engine.Run();
  return saved;
}

}  // namespace

int main() {
  std::printf("Replication-pipeline compression (LZW on the SmartNIC, 16-way):\n\n");
  for (double z : {0.4, 0.6, 0.8}) {
    RunWithZeroFraction(z);
  }
  return 0;
}
