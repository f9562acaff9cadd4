#include "src/pipeline/placer.h"

#include <limits>

#include "src/sim/time.h"

namespace linefs::pipeline {

// Placement pass period: about one 4 MB chunk's validate time (~1.7 ms, Fig. 5).
constexpr sim::Time kCheckInterval = 2 * sim::kMillisecond;
// Idle checks before an extra worker retires: 6 ms of quiet, so gaps between chunks don't thrash.
constexpr int kScaleDownIntervals = 3;

StagePlacer::StagePlacer(sim::Engine* engine, const Options& options,
                         obs::MetricScope scope)
    : engine_(engine), options_(options),
      placements_local_(scope.Sub("placements").CounterAt("local")),
      placements_remote_(scope.Sub("placements").CounterAt("remote")),
      placements_host_(scope.Sub("placements").CounterAt("host")),
      migrations_(scope.CounterAt("migrations")) {}

void StagePlacer::AddSite(Site site) { sites_.push_back(site); }

size_t StagePlacer::RegisterGroup(Group group) {
  groups_.push_back(GroupState{std::move(group), 0});
  return groups_.size() - 1;
}

void StagePlacer::Start() {
  if (!running_) {
    running_ = true;
    engine_->Spawn(Loop(), "placer");
  }
}

void StagePlacer::Stop() { stopped_ = true; }

sim::Task<> StagePlacer::Loop() {
  while (!stopped_) {
    co_await engine_->SleepFor(kCheckInterval);
    if (stopped_) {
      break;
    }
    Tick();
  }
}

bool StagePlacer::Saturated(const Site& site) const {
  return static_cast<double>(site.pool->busy_cores()) >=
         options_.nic_saturation * static_cast<double>(site.pool->cores());
}

const StagePlacer::Site* StagePlacer::LocalSite(int node, bool host) const {
  for (const Site& site : sites_) {
    if (site.node == node && site.host == host) {
      return &site;
    }
  }
  return nullptr;
}

const StagePlacer::Site* StagePlacer::ChooseSite(int origin_node) {
  const Site* local = LocalSite(origin_node, /*host=*/false);
  if (local == nullptr) {
    return LocalSite(origin_node, /*host=*/true);
  }
  if (!options_.pooling || !Saturated(*local)) {
    return local;
  }
  // Pooled NIC cores: pick the least-busy remote NIC that still has headroom.
  const Site* best = nullptr;
  double best_ratio = std::numeric_limits<double>::max();
  for (const Site& site : sites_) {
    if (site.host || site.node == origin_node) {
      continue;
    }
    double ratio = site.pool->cores() > 0
                       ? static_cast<double>(site.pool->busy_cores()) /
                             static_cast<double>(site.pool->cores())
                       : 1.0;
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best = &site;
    }
  }
  if (best != nullptr && !Saturated(*best)) {
    return best;
  }
  // Every NIC is saturated: fall back to the origin's host cores (§3.1
  // dynamic offload, per worker).
  const Site* host = LocalSite(origin_node, /*host=*/true);
  return host != nullptr ? host : local;
}

void StagePlacer::CountPlacement(const Site& site, int origin_node) {
  if (site.host) {
    placements_host_->Increment();
  } else if (site.node != origin_node) {
    placements_remote_->Increment();
  } else {
    placements_local_->Increment();
  }
}

void StagePlacer::Tick() {
  size_t threshold = static_cast<size_t>(options_.queue_threshold);
  for (GroupState& gs : groups_) {
    Group& g = gs.group;
    size_t depth = g.depth();
    if (depth > threshold && g.workers() < options_.max_workers) {
      gs.idle_intervals = 0;
      const Site* site = ChooseSite(g.node);
      if (site != nullptr) {
        CountPlacement(*site, g.node);
        g.spawn(*site);
      }
    } else if (depth < threshold && g.workers() - g.retire_pending() > 1) {
      // Scale back down: a stage that stayed under threshold for several
      // consecutive checks gives an extra worker back. The retire pill rides
      // the stage queue so the worker winds down at a chunk boundary; one
      // worker always survives.
      if (++gs.idle_intervals >= kScaleDownIntervals) {
        gs.idle_intervals = 0;
        g.retire();
      }
    } else {
      gs.idle_intervals = 0;
    }
  }
}

void StagePlacer::MigrateTo(size_t group_id, const Site& target) {
  GroupState& gs = groups_[group_id];
  CountPlacement(target, gs.group.node);
  gs.group.spawn(target);
  gs.group.retire();
  migrations_->Increment();
}

}  // namespace linefs::pipeline
