#include "src/repl/registry.h"

namespace linefs::repl {

void RegisterChainProtocol(ProtocolRegistry& registry);
void RegisterQuorumProtocol(ProtocolRegistry& registry);

void RegisterBuiltinProtocols(ProtocolRegistry& registry) {
  RegisterChainProtocol(registry);
  RegisterQuorumProtocol(registry);
}

}  // namespace linefs::repl
