// Chain replication ported onto the repl::Protocol API, unchanged in
// behavior: the origin wires each chunk to its first live successor, replicas
// forward down the rotation, and acks return one-way to the origin. Commit
// and retire coincide -- every live replica must ack before a chunk is
// client-visible. The lock-step schedule is the same protocol at
// repl.transfer_window = 1, not a separate one.

#include "src/repl/registry.h"

namespace linefs::repl {
namespace {

class ChainProtocol : public Protocol {
 public:
  ChainProtocol() : info_{"chain", /*forwards=*/true, /*quorum=*/false} {}

  const Info& info() const override { return info_; }

  std::vector<Target> OnChunkReady(const PeerView& view) override {
    std::vector<int> chain = ChainOrder(view);
    if (chain.size() <= 1) return {};
    // One wire send; replicas relay. Terminal only when the chain has a
    // single replica (nothing downstream to forward to).
    return {Target{chain[1], /*hop=*/1, /*terminal=*/chain.size() <= 2}};
  }

  bool CommitPoint(const PeerView& view, const std::set<int>& acked) const override {
    return RetirePoint(view, acked);
  }

 private:
  Info info_;
};

}  // namespace

void RegisterChainProtocol(ProtocolRegistry& registry) {
  registry.Register("chain", [](const ProtocolParams&) {
    return std::make_unique<ChainProtocol>();
  });
}

}  // namespace linefs::repl
