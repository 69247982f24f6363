#pragma once

#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mutsvc::core {

/// Parameters of the Figure 2 network emulation.
struct TestbedConfig {
  sim::Duration wan_one_way = sim::ms(100);  // §3.1: 100 ms each way
  double wan_bandwidth_bps = 100e6;          // §3.1: 100 Mbit/s combined
  sim::Duration lan_latency = sim::us(200);
  double lan_bandwidth_bps = 100e6;
  std::size_t server_cpus = 2;  // dual-processor P-III workstations
  /// True: the database runs on the main app-server node (RUBiS);
  /// false: on its own workstation on the main LAN (Pet Store). An
  /// Experiment sets it from AppDriver::db_colocated.
  bool db_colocated = false;
  /// Number of edge servers (the paper's testbed has two); each edge gets
  /// its own co-located client group. Used by the scaling experiments.
  std::size_t edge_count = 2;
  /// Data-tier shards. 1 (the paper's testbed) reproduces the single-RDBMS
  /// topology exactly; N > 1 gives each shard its own node with its own
  /// service resource on the main site's LAN. Shard 0 keeps the single-DB
  /// placement (co-located with the main server, or the "rdbms" node).
  std::size_t db_shards = 1;
};

/// Node handles for the scaled-down wide-area testbed of Figure 2:
/// one main application server (co-located with the RDBMS), two edge
/// application servers across the WAN, and one client machine per server
/// (standing in for the paper's three per server; rates are aggregated).
struct TestbedNodes {
  net::NodeId main_server;
  std::vector<net::NodeId> edge_servers;  // two edges
  net::NodeId db_node;                    // shard 0; == main_server when co-located
  std::vector<net::NodeId> db_nodes;      // one per data-tier shard (db_nodes[0] == db_node)
  net::NodeId wan_hub;                    // the Click software router
  net::NodeId local_clients;              // LAN with the main server
  std::vector<net::NodeId> remote_clients;  // one per edge server
};

/// Builds Figure 2 into `topo` and returns the node handles.
///
/// WAN paths go through a hub (the software router), with half the one-way
/// latency on each hop, so edge-to-edge latency equals main-to-edge — as in
/// the emulated star.
[[nodiscard]] TestbedNodes build_testbed(net::Topology& topo, const TestbedConfig& cfg = {});

}  // namespace mutsvc::core
