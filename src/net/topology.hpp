#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mutsvc::net {

/// What a node is for; used by deployment planning and reporting.
enum class NodeRole { kClientMachine, kAppServer, kDatabaseServer, kRouter };

[[nodiscard]] inline const char* to_string(NodeRole r) {
  switch (r) {
    case NodeRole::kClientMachine: return "client";
    case NodeRole::kAppServer: return "app-server";
    case NodeRole::kDatabaseServer: return "db-server";
    case NodeRole::kRouter: return "router";
  }
  return "?";
}

/// One machine in the testbed. The CPU pool models the paper's
/// dual-processor workstations.
struct Node {
  NodeId id;
  std::string name;
  NodeRole role = NodeRole::kAppServer;
  std::unique_ptr<sim::FifoResource> cpu;  // created by Topology::add_node
};

/// Thrown when no live route exists between two nodes (failure injection).
class NoRouteError : public NetError {
 public:
  using NetError::NetError;
};

/// A directed link: propagation latency plus a FIFO serializer at the link
/// bandwidth (this is how the paper's Click traffic shaper behaved).
struct Link {
  NodeId from;
  NodeId to;
  sim::Duration latency;
  double bandwidth_bps = 0.0;                   // 0 => infinite
  bool up = true;                               // failure injection
  std::unique_ptr<sim::FifoResource> serializer;  // 1-server FIFO

  [[nodiscard]] sim::Duration transmission_time(Bytes size) const {
    if (bandwidth_bps <= 0.0) return sim::Duration::zero();
    return sim::Duration::seconds(static_cast<double>(size) * 8.0 / bandwidth_bps);
  }
};

/// Every (from, to) route of one routing epoch, laid out back to back.
/// Topology::build_routes makes a new table whenever the graph or a link's
/// state changed; a message in flight keeps the table it started with, so a
/// link flap never changes the hops of a message already on its way.
struct RouteTable {
  std::size_t nodes = 0;
  /// Route (a, b) is hops[begin[a * nodes + b], begin[a * nodes + b + 1]).
  std::vector<Link*> hops;
  std::vector<std::uint32_t> begin;
  /// Per (a, b): 1 when a live route exists.
  std::vector<std::uint8_t> reachable;
};

/// The emulated network graph with static shortest-latency routing.
class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(sim) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  NodeId add_node(std::string name, NodeRole role, std::size_t cpus = 2);

  /// Adds a duplex link (two directed links with identical parameters).
  void add_link(NodeId a, NodeId b, sim::Duration latency, double bandwidth_bps = 0.0);

  /// Failure injection: takes the duplex link between `a` and `b` down or
  /// back up; routes are recomputed lazily. Throws if no such link exists.
  void set_link_state(NodeId a, NodeId b, bool up);

  /// Takes every link adjacent to `node` down/up (server crash model).
  void set_node_state(NodeId node, bool up);

  /// True if a live route exists.
  [[nodiscard]] bool reachable(NodeId a, NodeId b);

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] NodeId find(const std::string& name) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Every node carrying `role`, in creation order — e.g. the data tier's
  /// shard nodes for multi-DB topologies.
  [[nodiscard]] std::vector<NodeId> nodes_with_role(NodeRole role) const {
    std::vector<NodeId> out;
    for (const Node& n : nodes_) {
      if (n.role == role) out.push_back(n.id);
    }
    return out;
  }

  /// Every directed link, in creation order (duplex pairs are adjacent).
  /// Used by the fault injector to cut partitions.
  [[nodiscard]] std::vector<Link*> all_links();

  /// Marks routes stale after direct `Link::up` manipulation.
  void invalidate_routes() { routes_valid_ = false; }

  /// Recomputes routes; called automatically on first routing query after a
  /// topology change.
  void build_routes();

  /// The current routing epoch's table (rebuilt first when stale). Holding
  /// the pointer keeps that epoch's hops valid across later rebuilds.
  [[nodiscard]] std::shared_ptr<const RouteTable> routes() {
    if (!routes_valid_) build_routes();
    return routes_;
  }

  /// The hops from `a` to `b` in `table` (empty when a == b). Throws
  /// NoRouteError when `b` is unreachable in that epoch.
  [[nodiscard]] std::span<Link* const> hops(const RouteTable& table, NodeId a, NodeId b) const;

  /// Ordered directed links along the route from `a` to `b`.
  [[nodiscard]] std::vector<Link*> path(NodeId a, NodeId b);

  /// Sum of propagation latencies along the route (no queueing/transmission).
  [[nodiscard]] sim::Duration path_latency(NodeId a, NodeId b);

  /// Partitions nodes into lookahead domains, the event-order tags of
  /// DESIGN §15: connected components of the links whose latency is below
  /// `wan_threshold`, link up/down state ignored (a flapping link is still
  /// the same boundary). Each LAN island is one domain; only WAN links
  /// separate domains. Returns domain id per node index, ids dense and
  /// assigned in node order.
  [[nodiscard]] std::vector<std::uint32_t> lookahead_domains(sim::Duration wan_threshold) const;

  /// Round-trip propagation latency.
  [[nodiscard]] sim::Duration rtt(NodeId a, NodeId b) {
    return path_latency(a, b) + path_latency(b, a);
  }

 private:
  [[nodiscard]] Link* link_between(NodeId a, NodeId b);

  sim::Simulator& sim_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::shared_ptr<const RouteTable> routes_;
  bool routes_valid_ = false;
};

}  // namespace mutsvc::net
