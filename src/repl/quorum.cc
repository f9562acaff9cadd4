// Majority-ack primary-backup (ABD-style) quorum replication: the origin NIC
// wires each chunk to every live replica in parallel (terminal point-to-point
// deliveries, no forwarding) and the chunk commits -- becomes fsync-visible --
// as soon as a majority of num_nodes holds it. The origin's own copy counts
// as one vote, and acks from since-failed replicas keep counting: a quorum
// reached is never un-reached. Retire (log reclaim) still waits for every
// live replica so the sweeper can refill laggards from the client log.

#include "src/repl/protocol.h"

namespace linefs::repl {

std::vector<Target> QuorumProtocol::OnChunkReady(const PeerView& view) {
  std::vector<Target> targets;
  for (int n = 0; n < view.num_nodes; ++n) {
    if (n == view.self || !view.IsAlive(n)) continue;
    targets.push_back(Target{n, /*hop=*/1, /*terminal=*/true});
  }
  return targets;
}

bool QuorumProtocol::CommitPoint(const PeerView& view, const std::set<int>& acked) const {
  // +1: the origin's local copy is a quorum vote.
  if (static_cast<int>(acked.size()) + 1 >= view.num_nodes / 2 + 1) return true;
  // Degraded mode: with too few live peers to ever reach quorum, fall back
  // to all-live-acked so availability matches chain under the same faults.
  return RetirePoint(view, acked);
}

}  // namespace linefs::repl
