#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mutsvc::net {

class FaultInjector;

/// Moves messages across the topology.
///
/// Per directed link a message first queues at the link's FIFO serializer
/// (transmission time = size / bandwidth) and then experiences the link's
/// propagation latency; consecutive hops are traversed store-and-forward,
/// with a small per-hop router overhead (the Click router of Figure 2).
class Network {
 public:
  Network(sim::Simulator& sim, Topology& topo, sim::Duration per_hop_overhead = sim::us(50))
      : sim_(sim), topo_(topo), per_hop_overhead_(per_hop_overhead) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Delivers one message; completes when the last byte arrives at `to`.
  /// Throws NoRouteError before any traffic is generated when no live route
  /// exists, and DeliveryError (after the time spent up to the losing hop)
  /// when the fault injector drops the message.
  [[nodiscard]] sim::Task<void> deliver(NodeId from, NodeId to, Bytes size);

  /// Installs a fault injector consulted per hop for message loss. Null
  /// detaches it. The injector must outlive all
  /// in-flight deliveries.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  /// Round-trip propagation latency between two nodes (no queueing).
  [[nodiscard]] sim::Duration rtt(NodeId a, NodeId b) { return topo_.rtt(a, b); }

  [[nodiscard]] Topology& topology() { return topo_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Installs the node→lookahead-domain map (DESIGN §15). Once set, every
  /// hop's propagation wait resumes the delivery in the destination node's
  /// domain (`wait_in`), which is how an event's owner moves from one
  /// island to another. Same-domain hops degenerate to a local wait.
  void set_domains(std::vector<sim::Simulator::DomainId> domain_of_node) {
    domain_of_node_ = std::move(domain_of_node);
  }

  // --- accounting ---------------------------------------------------------
  // A message counts as "sent" only once a live route was resolved (a send
  // that throws NoRouteError generated no traffic). Lost messages DID
  // occupy the wire up to the losing hop, so they stay in messages_sent and
  // are additionally counted in messages_lost.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t wan_messages_sent() const { return wan_messages_; }
  [[nodiscard]] Bytes bytes_sent() const { return bytes_; }
  [[nodiscard]] Bytes wan_bytes_sent() const { return wan_bytes_; }
  [[nodiscard]] std::uint64_t messages_lost() const { return messages_lost_; }
  [[nodiscard]] Bytes bytes_lost() const { return bytes_lost_; }
  void reset_counters() {
    messages_ = wan_messages_ = messages_lost_ = 0;
    bytes_ = wan_bytes_ = bytes_lost_ = 0;
  }

  /// A link is "WAN" if its propagation latency passes this threshold;
  /// used for accounting (tests assert WAN-crossing counts per page) and as
  /// the lookahead-domain boundary.
  void set_wan_threshold(sim::Duration d) { wan_threshold_ = d; }
  [[nodiscard]] sim::Duration wan_threshold() const { return wan_threshold_; }

 private:
  sim::Simulator& sim_;
  Topology& topo_;
  sim::Duration per_hop_overhead_;
  sim::Duration wan_threshold_ = sim::ms(10);
  FaultInjector* faults_ = nullptr;
  std::vector<sim::Simulator::DomainId> domain_of_node_;  // empty = untagged
  std::uint64_t messages_ = 0;
  std::uint64_t wan_messages_ = 0;
  std::uint64_t messages_lost_ = 0;
  Bytes bytes_ = 0;
  Bytes wan_bytes_ = 0;
  Bytes bytes_lost_ = 0;
};

}  // namespace mutsvc::net
