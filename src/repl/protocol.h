#pragma once

// Replication-protocol API.
//
// A repl::Protocol describes *what* a replication scheme does -- which peers a
// freshly staged chunk is wired to, when a chunk becomes client-visible
// (commit point), and when its log range may be reclaimed (retire point) --
// while the surrounding services (the windowed one-way send path and its
// transfer_window flow control, single-QP wire ordering, the retransmit
// sweeper, ack dedup) stay protocol-agnostic in core::NicFs / core::SharedFs. Protocols are pure decision objects: they
// never touch the wire themselves and hold no per-chunk state, which keeps
// them trivially usable from both the NIC-offloaded and host-only data paths.
//
// The set is closed: chain replication (the paper's) and a majority-quorum
// fan-out. MakeProtocol() maps a DfsConfig::repl.protocol name to one of them.

#include <functional>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

namespace linefs::repl {

// A protocol's view of the cluster at a decision point. `alive` reflects
// service admission (heartbeat liveness), not physical node health.
struct PeerView {
  int self = 0;
  int num_nodes = 0;
  std::function<bool(int)> alive;

  bool IsAlive(int node) const { return !alive || alive(node); }
};

// Successor rotation starting at view.self, skipping peers that are not
// service-alive. Element 0 is always view.self. Shared by the chain protocols
// and by the receive-side forwarding logic.
std::vector<int> ChainOrder(const PeerView& view);

// One wire destination for a chunk dispatch.
struct Target {
  int node = 0;
  // Position stamped into ReplChunkMsg::hop (1 = first replica). Chain-style
  // receivers use it to locate their successor.
  int hop = 1;
  // Terminal deliveries are point-to-point: the receiver applies the chunk
  // but never forwards it, regardless of hop position.
  bool terminal = true;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  // Forwarding protocols relay chunks replica-to-replica (chain); fan-out
  // protocols reach every replica directly from the origin.
  virtual bool forwards() const = 0;

  // Wire destinations for a chunk staged at the origin. An empty vector means
  // no live replicas: the chunk is trivially committed and retired.
  virtual std::vector<Target> OnChunkReady(const PeerView& view) = 0;

  // True once the chunk may become client-visible (fsync can pass it).
  virtual bool CommitPoint(const PeerView& view, const std::set<int>& acked) const = 0;

  // True once the chunk's client-log range may be reclaimed. The default --
  // every currently-live replica has acked -- is the safe floor for any
  // protocol: the retransmit sweeper re-reads the client log to refill
  // laggards, so reclaim must wait for them even after commit.
  virtual bool RetirePoint(const PeerView& view, const std::set<int>& acked) const;
};

// Successor-chain forwarding on one-way posts (chain.cc).
class ChainProtocol : public Protocol {
 public:
  bool forwards() const override { return true; }
  std::vector<Target> OnChunkReady(const PeerView& view) override;
  bool CommitPoint(const PeerView& view, const std::set<int>& acked) const override;
};

// The origin fans every chunk out to all live replicas; commit at a majority
// of num_nodes (quorum.cc).
class QuorumProtocol : public Protocol {
 public:
  bool forwards() const override { return false; }
  std::vector<Target> OnChunkReady(const PeerView& view) override;
  bool CommitPoint(const PeerView& view, const std::set<int>& acked) const override;
};

// Every protocol name, in the order the torture and conformance sweeps run them.
inline constexpr std::string_view kProtocolNames[] = {"chain", "quorum"};

// The protocol named `name`, or nullptr for an unknown name.
std::unique_ptr<Protocol> MakeProtocol(std::string_view name);

}  // namespace linefs::repl
