// Chain replication: the origin wires each chunk to its first live successor,
// replicas forward down the rotation, and acks return one-way to the origin.
// Commit and retire coincide -- every live replica must ack before a chunk is
// client-visible. The lock-step schedule is the same protocol at
// repl.transfer_window = 1, not a separate one.

#include "src/repl/protocol.h"

namespace linefs::repl {

std::vector<Target> ChainProtocol::OnChunkReady(const PeerView& view) {
  std::vector<int> chain = ChainOrder(view);
  if (chain.size() <= 1) return {};
  // One wire send; replicas relay. Terminal only when the chain has a
  // single replica (nothing downstream to forward to).
  return {Target{chain[1], /*hop=*/1, /*terminal=*/chain.size() <= 2}};
}

bool ChainProtocol::CommitPoint(const PeerView& view, const std::set<int>& acked) const {
  return RetirePoint(view, acked);
}

}  // namespace linefs::repl
