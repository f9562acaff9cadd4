// StagePlacer: cluster-wide placement of pipeline-stage workers.
//
// Replaces the per-node ScalingMonitor's add/retire logic with one placement
// loop over every registered stage group (one group per pipe x scalable
// stage). The grow/shrink policy is unchanged — grow when the stage's wait
// queue exceeds DfsConfig::stage_queue_threshold, retire after three
// consecutive idle checks (one every 2 ms), one worker always survives — but
// *where* a new worker lands is now a decision:
//
//   1. the local SmartNIC, while it has headroom;
//   2. with `pooling` enabled, the least-busy unsaturated remote NIC
//      (Meili-style pooled wimpy cores: all NICs form one resource pool);
//   3. the local host's cores once every NIC is saturated (the paper's
//      dynamic-offload fallback, now per stage worker instead of per node).
//
// With pooling disabled (default) every placement is local, reproducing the
// pre-placer behavior exactly. Worker migration (spawn at a new site, retire
// one pill) is transparent to the wire protocol: stage output re-sequences
// through the downstream reorder buffers, so chunk wire order is preserved
// no matter where workers run.

#ifndef SRC_PIPELINE_PLACER_H_
#define SRC_PIPELINE_PLACER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace linefs::pipeline {

class StagePlacer {
 public:
  struct Options {
    bool pooling = false;          // Consider remote NICs / host fallback.
    double nic_saturation = 0.75;  // busy/cores ratio that marks a NIC full.
    int queue_threshold = 5;
    int max_workers = 4;
  };

  // An execution complex workers can be placed on. Registered once per node
  // by the cluster: its SmartNIC pool and (as fallback) its host pool.
  struct Site {
    int node = 0;
    bool host = false;
    sim::CpuPool* pool = nullptr;
    int account = 0;
  };

  // One scalable stage of one pipe. The callbacks close over the pipe's
  // StageUnit so the placer never touches NICFS internals directly.
  struct Group {
    std::string stage;  // Stage name (for diagnostics).
    int node = 0;       // Home node: queue and downstream buffers live here.
    std::function<size_t()> depth;          // Stage wait-queue depth.
    std::function<int()> workers;           // Current worker count.
    std::function<int()> retire_pending;    // Retire pills not yet consumed.
    std::function<void(const Site&)> spawn; // Start a worker at a site.
    std::function<void()> retire;           // Push one retire pill.
  };

  StagePlacer(sim::Engine* engine, const Options& options, obs::MetricScope scope);

  void AddSite(Site site);
  // Returns the group's id (stable; usable with MigrateTo).
  size_t RegisterGroup(Group group);

  void Start();
  void Stop();

  // One placement pass over every group (also called by the periodic loop).
  void Tick();

  // Placement policy for a grow decision originating at `origin_node`.
  // Returns nullptr only if no site is registered for that node.
  const Site* ChooseSite(int origin_node);

  // Explicitly migrates one worker of `group_id` to `target`: spawns there,
  // then retires one existing worker. Order is preserved by the downstream
  // reorder buffer. Used by tests and future rebalancing policies.
  void MigrateTo(size_t group_id, const Site& target);

  const std::vector<Site>& sites() const { return sites_; }
  size_t group_count() const { return groups_.size(); }
  const Group& group(size_t id) const { return groups_[id].group; }

 private:
  struct GroupState {
    Group group;
    int idle_intervals = 0;
  };

  sim::Task<> Loop();
  bool Saturated(const Site& site) const;
  const Site* LocalSite(int node, bool host) const;
  void CountPlacement(const Site& site, int origin_node);

  sim::Engine* engine_;
  Options options_;
  std::vector<Site> sites_;
  std::vector<GroupState> groups_;
  bool running_ = false;
  bool stopped_ = false;
  obs::Counter* placements_local_;
  obs::Counter* placements_remote_;
  obs::Counter* placements_host_;
  obs::Counter* migrations_;
};

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_PLACER_H_
