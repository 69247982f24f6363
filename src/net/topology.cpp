#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace mutsvc::net {

namespace {
constexpr std::uint32_t kNoHop = std::numeric_limits<std::uint32_t>::max();
}

NodeId Topology::add_node(std::string name, NodeRole role, std::size_t cpus) {
  NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.role = role;
  n.cpu = std::make_unique<sim::FifoResource>(sim_, cpus, n.name + ".cpu");
  nodes_.push_back(std::move(n));
  routes_valid_ = false;
  return id;
}

void Topology::add_link(NodeId a, NodeId b, sim::Duration latency, double bandwidth_bps) {
  auto make = [&](NodeId f, NodeId t) {
    auto l = std::make_unique<Link>();
    l->from = f;
    l->to = t;
    l->latency = latency;
    l->bandwidth_bps = bandwidth_bps;
    l->serializer = std::make_unique<sim::FifoResource>(
        sim_, 1, node(f).name + "->" + node(t).name + ".link");
    links_.push_back(std::move(l));
  };
  make(a, b);
  make(b, a);
  routes_valid_ = false;
}

std::vector<Link*> Topology::all_links() {
  std::vector<Link*> out;
  out.reserve(links_.size());
  for (const auto& l : links_) out.push_back(l.get());
  return out;
}

Node& Topology::node(NodeId id) {
  if (id.value() >= nodes_.size()) throw std::out_of_range("Topology::node: bad id");
  return nodes_[id.value()];
}

const Node& Topology::node(NodeId id) const {
  if (id.value() >= nodes_.size()) throw std::out_of_range("Topology::node: bad id");
  return nodes_[id.value()];
}

NodeId Topology::find(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n.name == name) return n.id;
  }
  throw std::invalid_argument("Topology::find: no node named " + name);
}

void Topology::build_routes() {
  const std::size_t n = nodes_.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kInf));
  // next_hop[a][b] = next node on the shortest path a->b, or kNoHop.
  std::vector<std::vector<std::uint32_t>> next_hop(n, std::vector<std::uint32_t>(n, kNoHop));
  for (std::size_t i = 0; i < n; ++i) {
    dist[i][i] = 0.0;
    next_hop[i][i] = static_cast<std::uint32_t>(i);
  }
  for (const auto& l : links_) {
    if (!l->up) continue;
    auto f = l->from.value();
    auto t = l->to.value();
    double w = static_cast<double>(l->latency.count_micros());
    if (w < dist[f][t]) {
      dist[f][t] = w;
      next_hop[f][t] = t;
    }
  }
  // Floyd–Warshall; topologies are small (≈15 nodes), O(n^3) is fine.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (dist[k][j] == kInf) continue;
        if (dist[i][k] + dist[k][j] < dist[i][j]) {
          dist[i][j] = dist[i][k] + dist[k][j];
          next_hop[i][j] = next_hop[i][k];
        }
      }
    }
  }
  // Lay every route's hops out once; delivery then walks a span.
  auto table = std::make_shared<RouteTable>();
  table->nodes = n;
  table->begin.reserve(n * n + 1);
  table->reachable.assign(n * n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      table->begin.push_back(static_cast<std::uint32_t>(table->hops.size()));
      if (next_hop[a][b] == kNoHop) continue;
      table->reachable[a * n + b] = 1;
      for (std::size_t cur = a; cur != b; cur = next_hop[cur][b]) {
        Link* l = link_between(NodeId{static_cast<std::uint32_t>(cur)},
                               NodeId{next_hop[cur][b]});
        if (l == nullptr) throw std::logic_error("Topology::build_routes: route uses missing link");
        table->hops.push_back(l);
      }
    }
  }
  table->begin.push_back(static_cast<std::uint32_t>(table->hops.size()));
  routes_ = std::move(table);
  routes_valid_ = true;
}

std::span<Link* const> Topology::hops(const RouteTable& table, NodeId a, NodeId b) const {
  if (a.value() >= table.nodes || b.value() >= table.nodes) {
    throw std::out_of_range("Topology::path: bad id");
  }
  const std::size_t cell = a.value() * table.nodes + b.value();
  if (table.reachable[cell] == 0) {
    throw NoRouteError("Topology::path: no route from " + nodes_[a.value()].name + " to " +
                       nodes_[b.value()].name);
  }
  return {table.hops.data() + table.begin[cell], table.hops.data() + table.begin[cell + 1]};
}

Link* Topology::link_between(NodeId a, NodeId b) {
  // Parallel links are allowed; traffic takes the lowest-latency live one
  // (mirroring the routing metric).
  Link* best = nullptr;
  for (const auto& l : links_) {
    if (l->from == a && l->to == b && l->up) {
      if (best == nullptr || l->latency < best->latency) best = l.get();
    }
  }
  return best;
}

void Topology::set_link_state(NodeId a, NodeId b, bool up) {
  bool found = false;
  for (const auto& l : links_) {
    if ((l->from == a && l->to == b) || (l->from == b && l->to == a)) {
      l->up = up;
      found = true;
    }
  }
  if (!found) throw std::invalid_argument("Topology::set_link_state: no such link");
  routes_valid_ = false;
}

void Topology::set_node_state(NodeId node, bool up) {
  for (const auto& l : links_) {
    if (l->from == node || l->to == node) l->up = up;
  }
  routes_valid_ = false;
}

bool Topology::reachable(NodeId a, NodeId b) {
  try {
    (void)path(a, b);
    return true;
  } catch (const NoRouteError&) {
    return false;
  }
}

std::vector<Link*> Topology::path(NodeId a, NodeId b) {
  const std::shared_ptr<const RouteTable> table = routes();
  const std::span<Link* const> route = hops(*table, a, b);
  return {route.begin(), route.end()};
}

sim::Duration Topology::path_latency(NodeId a, NodeId b) {
  const std::shared_ptr<const RouteTable> table = routes();
  sim::Duration total = sim::Duration::zero();
  for (Link* l : hops(*table, a, b)) total += l->latency;
  return total;
}

std::vector<std::uint32_t> Topology::lookahead_domains(sim::Duration wan_threshold) const {
  // Union-find over the sub-threshold (LAN) links.
  std::vector<std::uint32_t> parent(nodes_.size());
  for (std::uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& link : links_) {
    if (link->latency >= wan_threshold) continue;
    const std::uint32_t a = find(link->from.value());
    const std::uint32_t b = find(link->to.value());
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Dense domain ids in node order, so domain 0 is the lowest-id island.
  std::vector<std::uint32_t> domain(nodes_.size(), 0);
  std::vector<std::uint32_t> id_of_root(nodes_.size(), std::numeric_limits<std::uint32_t>::max());
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < domain.size(); ++i) {
    const std::uint32_t root = find(i);
    if (id_of_root[root] == std::numeric_limits<std::uint32_t>::max()) id_of_root[root] = next++;
    domain[i] = id_of_root[root];
  }
  return domain;
}

}  // namespace mutsvc::net
