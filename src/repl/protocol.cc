#include "src/repl/protocol.h"

namespace linefs::repl {

std::vector<int> ChainOrder(const PeerView& view) {
  std::vector<int> chain;
  chain.reserve(view.num_nodes);
  for (int i = 0; i < view.num_nodes; ++i) {
    int node = (view.self + i) % view.num_nodes;
    if (node == view.self || view.IsAlive(node)) {
      chain.push_back(node);
    }
  }
  return chain;
}

bool Protocol::RetirePoint(const PeerView& view, const std::set<int>& acked) const {
  for (int n = 0; n < view.num_nodes; ++n) {
    if (n == view.self) continue;
    if (view.IsAlive(n) && !acked.contains(n)) return false;
  }
  return true;
}

std::unique_ptr<Protocol> MakeProtocol(std::string_view name) {
  if (name == "chain") return std::make_unique<ChainProtocol>();
  if (name == "quorum") return std::make_unique<QuorumProtocol>();
  return nullptr;
}

}  // namespace linefs::repl
