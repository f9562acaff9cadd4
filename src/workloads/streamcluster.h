// streamcluster stand-in (PARSEC [20]): the CPU- and memory-intensive
// co-runner used throughout §5 to create multi-tenant interference.
//
// The real benchmark alternates parallel computation phases with barriers;
// the straggler effect of §2.1 (C1) — one delayed thread stalls everyone at
// the barrier — emerges naturally from the model. Each thread iteration
// charges host CPU time and streams bytes over the host DRAM link (memory
// bandwidth interference).

#ifndef SRC_WORKLOADS_STREAMCLUSTER_H_
#define SRC_WORKLOADS_STREAMCLUSTER_H_

#include <memory>

#include "src/hw/node.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace linefs::workloads {

class Streamcluster {
 public:
  struct Options {
    int threads = 48;
    int iterations = 40;
    // Per-thread uncontended compute per iteration.
    sim::Time work_per_iteration = 100 * sim::kMillisecond;
    // Per-thread DRAM traffic per iteration (memory-bandwidth pressure).
    uint64_t bytes_per_iteration = 64ULL << 20;
    sim::Priority priority = sim::Priority::kNormal;
  };

  Streamcluster(hw::Node* node, const Options& options)
      : node_(node), options_(options), barrier_(node->engine(), options.threads),
        done_(node->engine()) {}

  // Spawns all threads; resolves when the full run (all iterations on all
  // threads) completes. Solo runtime = iterations * work_per_iteration.
  sim::Task<> Run();

  sim::Time elapsed() const { return elapsed_; }
  double SlowdownVsSolo() const {
    sim::Time solo = static_cast<sim::Time>(options_.iterations) * options_.work_per_iteration;
    return static_cast<double>(elapsed_) / static_cast<double>(solo);
  }

 private:
  sim::Task<> Thread();

  hw::Node* node_;
  Options options_;
  sim::Barrier barrier_;
  sim::WaitGroup done_;
  sim::Time started_ = 0;
  sim::Time elapsed_ = 0;
};

}  // namespace linefs::workloads

#endif  // SRC_WORKLOADS_STREAMCLUSTER_H_
