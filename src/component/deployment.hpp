#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace mutsvc::comp {

/// The incremental design rules of §4, expressed as deployment features —
/// exactly the paper's §5 position that these should be *declarative*
/// ("extended deployment descriptors") rather than hand-coded.
enum class Feature {
  kRemoteFacade,             // §4.2 web/session components at edges, bulk façade calls
  kStubCaching,              // §4.2 EJBHomeFactory: cache JNDI home + remote stubs
  kStatefulComponentCaching, // §4.3 read-only entity beans at edges
  kQueryCaching,             // §4.4 edge query-result caches
  kAsyncUpdates,             // §4.5 MDB/JMS propagation instead of blocking push
};

[[nodiscard]] constexpr const char* to_string(Feature f) {
  switch (f) {
    case Feature::kRemoteFacade: return "remote-facade";
    case Feature::kStubCaching: return "stub-caching";
    case Feature::kStatefulComponentCaching: return "stateful-component-caching";
    case Feature::kQueryCaching: return "query-caching";
    case Feature::kAsyncUpdates: return "asynchronous-updates";
  }
  return "?";
}

/// How committed writes reach edge replicas (§4.3 / §4.5).
enum class UpdateMode { kNone, kBlockingPush, kAsyncPush };

/// How an invalidated edge query cache refreshes (§4.4): re-execute at the
/// main server on next read (pull) or receive new rows with the update push.
enum class QueryRefreshMode { kPull, kPush };

/// The "extended deployment descriptor": which component runs where, which
/// entities have read-only replicas, where query caches sit, and which
/// design-rule features are on.
///
/// The plan is keyed by name; a Runtime indexes it by id once and re-indexes
/// whenever revision() moves (every mutation bumps it, so a live migration's
/// membership changes reach the per-call tables).
class DeploymentPlan {
 public:
  /// Bumped by every mutation.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  // --- component placement ------------------------------------------------
  /// Deploys `component` at `node`. The first placement is the component's
  /// primary (home) node.
  void place(const std::string& component, net::NodeId node) {
    ++revision_;
    auto& nodes = placement_[component];
    for (auto n : nodes) {
      if (n == node) return;
    }
    nodes.push_back(node);
  }

  [[nodiscard]] bool is_placed(const std::string& component) const {
    return placement_.contains(component);
  }

  [[nodiscard]] const std::vector<net::NodeId>& nodes_of(const std::string& component) const {
    auto it = placement_.find(component);
    if (it == placement_.end()) {
      throw std::invalid_argument("DeploymentPlan: component not placed: " + component);
    }
    return it->second;
  }

  [[nodiscard]] net::NodeId primary(const std::string& component) const {
    return nodes_of(component).front();
  }

  [[nodiscard]] bool is_deployed_at(const std::string& component, net::NodeId node) const {
    auto it = placement_.find(component);
    if (it == placement_.end()) return false;
    for (auto n : it->second) {
      if (n == node) return true;
    }
    return false;
  }

  /// Where a call from `from` should go: the co-located replica when one
  /// exists, else the primary.
  [[nodiscard]] net::NodeId resolve(const std::string& component, net::NodeId from) const {
    if (is_deployed_at(component, from)) return from;
    return primary(component);
  }

  [[nodiscard]] const std::map<std::string, std::vector<net::NodeId>>& placements() const {
    return placement_;
  }

  // --- features -------------------------------------------------------------
  void enable(Feature f) {
    ++revision_;
    features_ |= bit(f);
  }
  void disable(Feature f) {
    ++revision_;
    features_ &= ~bit(f);
  }
  [[nodiscard]] bool has(Feature f) const { return (features_ & bit(f)) != 0; }

  [[nodiscard]] UpdateMode update_mode() const {
    if (has(Feature::kAsyncUpdates)) return UpdateMode::kAsyncPush;
    if (has(Feature::kStatefulComponentCaching)) return UpdateMode::kBlockingPush;
    return UpdateMode::kNone;
  }

  void set_query_refresh(QueryRefreshMode m) {
    ++revision_;
    query_refresh_ = m;
  }
  [[nodiscard]] QueryRefreshMode query_refresh() const { return query_refresh_; }

  /// TACT-style order-error bound for asynchronous updates (§5's
  /// "application-specific relaxed consistency parameters"): a writer may
  /// run at most this many update batches ahead of the slowest replica
  /// before it must block. Zero means unbounded (pure §4.5 behaviour).
  void set_staleness_bound(std::uint32_t max_outstanding_batches) {
    ++revision_;
    staleness_bound_ = max_outstanding_batches;
  }
  [[nodiscard]] std::uint32_t staleness_bound() const { return staleness_bound_; }

  // --- read-only entity replicas (§4.3) --------------------------------------
  void replicate_read_only(const std::string& entity, net::NodeId node) {
    ++revision_;
    ro_replicas_[entity].insert(node);
  }

  /// Removes a node from an entity's replica set (live-migration
  /// retirement / rollback). No-op if absent.
  void remove_ro_replica(const std::string& entity, net::NodeId node) {
    ++revision_;
    auto it = ro_replicas_.find(entity);
    if (it == ro_replicas_.end()) return;
    it->second.erase(node);
    if (it->second.empty()) ro_replicas_.erase(it);
  }

  [[nodiscard]] bool has_ro_replica(const std::string& entity, net::NodeId node) const {
    auto it = ro_replicas_.find(entity);
    return it != ro_replicas_.end() && it->second.contains(node);
  }

  [[nodiscard]] const std::set<net::NodeId>& ro_replica_nodes(const std::string& entity) const {
    static const std::set<net::NodeId> kEmpty;
    auto it = ro_replicas_.find(entity);
    return it == ro_replicas_.end() ? kEmpty : it->second;
  }

  [[nodiscard]] const std::map<std::string, std::set<net::NodeId>>& ro_replicas() const {
    return ro_replicas_;
  }

  // --- query caches (§4.4) ----------------------------------------------------
  void add_query_cache(net::NodeId node) {
    ++revision_;
    query_cache_nodes_.insert(node);
  }
  /// Removes a node's query cache from the plan (live-migration retirement
  /// / rollback). No-op if absent.
  void remove_query_cache(net::NodeId node) {
    ++revision_;
    query_cache_nodes_.erase(node);
  }
  [[nodiscard]] bool has_query_cache(net::NodeId node) const {
    return query_cache_nodes_.contains(node);
  }
  [[nodiscard]] const std::set<net::NodeId>& query_cache_nodes() const {
    return query_cache_nodes_;
  }

  // --- servers ------------------------------------------------------------------
  /// The main application server (co-located with the database).
  void set_main_server(net::NodeId n) {
    ++revision_;
    main_server_ = n;
  }
  [[nodiscard]] net::NodeId main_server() const { return main_server_; }

  void add_edge_server(net::NodeId n) {
    ++revision_;
    edge_servers_.push_back(n);
  }
  [[nodiscard]] const std::vector<net::NodeId>& edge_servers() const { return edge_servers_; }

  /// Which application server a client machine's HTTP requests enter at.
  void set_entry_point(net::NodeId client_node, net::NodeId server) {
    ++revision_;
    entry_points_[client_node] = server;
  }
  [[nodiscard]] net::NodeId entry_point(net::NodeId client_node) const {
    auto it = entry_points_.find(client_node);
    if (it == entry_points_.end()) {
      throw std::invalid_argument("DeploymentPlan: no entry point for client node");
    }
    return it->second;
  }

  [[nodiscard]] std::string describe() const;

 private:
  [[nodiscard]] static constexpr std::uint32_t bit(Feature f) {
    return std::uint32_t{1} << static_cast<unsigned>(f);
  }

  std::uint64_t revision_ = 0;
  std::map<std::string, std::vector<net::NodeId>> placement_;
  std::uint32_t features_ = 0;
  std::map<std::string, std::set<net::NodeId>> ro_replicas_;
  std::set<net::NodeId> query_cache_nodes_;
  std::map<net::NodeId, net::NodeId> entry_points_;
  net::NodeId main_server_{};
  std::vector<net::NodeId> edge_servers_;
  QueryRefreshMode query_refresh_ = QueryRefreshMode::kPush;
  std::uint32_t staleness_bound_ = 0;
};

}  // namespace mutsvc::comp
