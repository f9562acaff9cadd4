#pragma once

// Process-wide replication-protocol registry, mirroring pipeline::Stages().
// Protocols self-register at static-init time; DfsConfig::Validate() checks
// `repl.protocol` against Contains(), and NicFs / SharedFs build their
// protocol instance through Create().

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/repl/protocol.h"

namespace linefs::repl {

// Knobs a factory may consume; forwarded verbatim from DfsConfig::repl.
struct ProtocolParams {
  // 0 means "majority of num_nodes" for quorum-style protocols.
  int quorum_size = 0;
};

class ProtocolRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Protocol>(const ProtocolParams&)>;

  void Register(const std::string& name, Factory factory);
  bool Contains(const std::string& name) const;
  // Returns nullptr for unknown names.
  std::unique_ptr<Protocol> Create(const std::string& name,
                                   const ProtocolParams& params = {}) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Factory> factories_;
};

// The process-wide registry holding the built-in protocols
// (chain, quorum) plus any test-registered ones.
ProtocolRegistry& Protocols();

// Installs chain and quorum into `registry`; called once by
// Protocols() and directly by tests that build a private registry.
void RegisterBuiltinProtocols(ProtocolRegistry& registry);

}  // namespace linefs::repl
