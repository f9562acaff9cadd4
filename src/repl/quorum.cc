// Majority-ack primary-backup (ABD-style) quorum replication: the origin NIC
// wires each chunk to every live replica in parallel (terminal point-to-point
// deliveries, no forwarding) and the chunk commits -- becomes fsync-visible --
// as soon as a write quorum of nodes holds it. The origin's own copy counts
// as one vote, and acks from since-failed replicas keep counting: a quorum
// reached is never un-reached. Retire (log reclaim) still waits for every
// live replica so the sweeper can refill laggards from the client log.

#include <algorithm>

#include "src/repl/registry.h"

namespace linefs::repl {
namespace {

class QuorumProtocol : public Protocol {
 public:
  explicit QuorumProtocol(int quorum_size)
      : quorum_size_(quorum_size),
        info_{"quorum", /*forwards=*/false, /*quorum=*/true} {}

  const Info& info() const override { return info_; }

  std::vector<Target> OnChunkReady(const PeerView& view) override {
    std::vector<Target> targets;
    for (int n = 0; n < view.num_nodes; ++n) {
      if (n == view.self || !view.IsAlive(n)) continue;
      targets.push_back(Target{n, /*hop=*/1, /*terminal=*/true});
    }
    return targets;
  }

  bool CommitPoint(const PeerView& view, const std::set<int>& acked) const override {
    // +1: the origin's local copy is a quorum vote.
    if (static_cast<int>(acked.size()) + 1 >= EffectiveQuorum(view)) return true;
    // Degraded mode: with too few live peers to ever reach quorum, fall back
    // to all-live-acked so availability matches chain under the same faults.
    return RetirePoint(view, acked);
  }

  int EffectiveQuorum(const PeerView& view) const {
    return quorum_size_ > 0 ? quorum_size_ : view.num_nodes / 2 + 1;
  }

 private:
  int quorum_size_;
  Info info_;
};

}  // namespace

void RegisterQuorumProtocol(ProtocolRegistry& registry) {
  registry.Register("quorum", [](const ProtocolParams& params) {
    return std::make_unique<QuorumProtocol>(params.quorum_size);
  });
}

}  // namespace linefs::repl
