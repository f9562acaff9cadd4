#include "src/rdma/rdma.h"

#include <utility>

namespace linefs::rdma {

Network::Network(sim::Engine* engine, hw::Fabric* fabric, std::vector<hw::Node*> nodes,
                 const hw::RdmaCosts& costs)
    : engine_(engine), fabric_(fabric), nodes_(std::move(nodes)), costs_(costs) {}

const Network::Route& Network::RouteFor(MemAddr src, MemAddr dst) {
  // One slot per (node, space) endpoint, one route per (src, dst) slot pair.
  const size_t slots = 2 * nodes_.size();
  auto slot = [](MemAddr a) {
    return static_cast<size_t>(a.node) * 2 + (a.space == Space::kNicMem ? 1 : 0);
  };
  if (routes_.empty()) {
    routes_.resize(slots * slots);
  }
  Route& route = routes_[slot(src) * slots + slot(dst)];
  if (route.ready) {
    return route;
  }
  struct Hop {
    sim::Link* link;
    sim::Link* fabric_rx = nullptr;  // Set on the fabric crossing.
  };
  std::vector<Hop> hops;
  // Source-side egress toward the local SmartNIC.
  if (src.space == Space::kHostPm) {
    hops.push_back(Hop{&nodes_[src.node]->pm_read()});
    hops.push_back(Hop{&nodes_[src.node]->nic().pcie_h2n()});
  } else if (src.node != dst.node || dst.space != Space::kNicMem) {
    hops.push_back(Hop{&nodes_[src.node]->nic().mem()});
  }
  // Fabric crossing.
  if (src.node != dst.node) {
    hops.push_back(Hop{&fabric_->tx(src.node), &fabric_->rx(dst.node)});
  }
  // Destination-side ingress.
  if (dst.space == Space::kHostPm) {
    hops.push_back(Hop{&nodes_[dst.node]->nic().pcie_n2h()});
    hops.push_back(Hop{&nodes_[dst.node]->pm_write()});
  } else {
    hops.push_back(Hop{&nodes_[dst.node]->nic().mem()});
  }
  // Cut-through: occupy the bottleneck link; other hops contribute latency
  // and byte accounting only.
  for (const Hop& hop : hops) {
    if (route.bottleneck == nullptr ||
        hop.link->bytes_per_sec() < route.bottleneck->bytes_per_sec()) {
      route.bottleneck = hop.link;
    }
  }
  for (const Hop& hop : hops) {
    if (hop.link == route.bottleneck) {
      continue;
    }
    route.extra_latency += hop.link->latency();
    route.accounted.push_back(hop.link);
    if (hop.fabric_rx != nullptr) {
      route.accounted.push_back(hop.fabric_rx);
    }
  }
  route.bottleneck_is_fabric_tx = route.bottleneck == &fabric_->tx(src.node);
  route.ready = true;
  return route;
}

sim::Task<> Network::MoveAlongPath(MemAddr src, MemAddr dst, uint64_t bytes) {
  const Route& route = RouteFor(src, dst);
  for (sim::Link* link : route.accounted) {
    link->Account(bytes);
  }
  if (route.extra_latency > 0) {
    co_await engine_->SleepFor(route.extra_latency);
  }
  if (route.bottleneck_is_fabric_tx) {
    co_await fabric_->Send(src.node, dst.node, bytes);
  } else {
    co_await route.bottleneck->Transfer(bytes);
  }
}

sim::Task<> Network::Write(const Initiator& initiator, MemAddr local, MemAddr remote,
                           uint64_t bytes) {
  if (initiator.cpu != nullptr && !initiator.batched) {
    co_await initiator.cpu->RunCycles(costs_.post_cycles, initiator.priority, initiator.account);
  }
  if (initiator.extra_latency > 0 && !initiator.batched) {
    co_await engine_->SleepFor(initiator.extra_latency);
  }
  co_await MoveAlongPath(local, remote, bytes);
  // Completion (ACK) propagates back; polling initiators see it immediately.
  // Batched verbs are swept by the batch leader's CQ poll.
  if (initiator.cpu != nullptr && !initiator.batched) {
    if (!initiator.polls) {
      co_await engine_->SleepFor(costs_.event_wakeup);
    }
    co_await initiator.cpu->RunCycles(costs_.completion_cycles, initiator.priority,
                                      initiator.account);
  }
}

sim::Task<> Network::Read(const Initiator& initiator, MemAddr local, MemAddr remote,
                          uint64_t bytes) {
  if (initiator.cpu != nullptr) {
    co_await initiator.cpu->RunCycles(costs_.post_cycles, initiator.priority, initiator.account);
  }
  if (initiator.extra_latency > 0) {
    co_await engine_->SleepFor(initiator.extra_latency);
  }
  // Request travels to the remote side (latency only), then data flows back.
  // A same-node read (NICFS fetching the host log) crosses PCIe, not the wire.
  sim::Time request_latency = local.node == remote.node
                                  ? nodes_[remote.node]->nic().params().pcie_latency
                                  : nodes_[remote.node]->nic().params().net_latency;
  co_await engine_->SleepFor(request_latency);
  co_await MoveAlongPath(remote, local, bytes);
  if (initiator.cpu != nullptr) {
    if (!initiator.polls) {
      co_await engine_->SleepFor(costs_.event_wakeup);
    }
    co_await initiator.cpu->RunCycles(costs_.completion_cycles, initiator.priority,
                                      initiator.account);
  }
}

sim::Task<> Network::RawTransfer(MemAddr src, MemAddr dst, uint64_t bytes) {
  return MoveAlongPath(src, dst, bytes);
}

}  // namespace linefs::rdma
