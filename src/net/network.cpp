#include "net/network.hpp"

#include "net/faults.hpp"

namespace mutsvc::net {

sim::Task<void> Network::deliver(NodeId from, NodeId to, Bytes size) {
  if (from == to) {  // loopback is free (and lossless: no link traversed)
    ++messages_;
    bytes_ += size;
    co_return;
  }
  // Resolve the route before touching any counter: a send with no live
  // route (NoRouteError) never put a byte on the wire. The message holds
  // its routing epoch, so a flap that rebuilds the routes mid-flight leaves
  // its hops as they were.
  const std::shared_ptr<const RouteTable> routes = topo_.routes();
  const std::span<Link* const> route = topo_.hops(*routes, from, to);
  ++messages_;
  bytes_ += size;

  bool crossed_wan = false;
  for (Link* link : route) {
    if (link->latency >= wan_threshold_) crossed_wan = true;
    // Decide loss up front so the draw order is independent of queueing,
    // but surface it only after the would-be transmission time has passed:
    // a lost message still occupied the serializer and the pipe.
    const bool lost = faults_ != nullptr && faults_->lose_message(*link);
    co_await link->serializer->consume(link->transmission_time(size));
    const sim::Duration hop_latency = link->latency + per_hop_overhead_;
    // The propagation wait carries the delivery into the destination
    // node's lookahead domain (DESIGN §15): the events it schedules on
    // arrival are owned by that domain.
    if (!domain_of_node_.empty()) {
      co_await sim_.wait_in(domain_of_node_[link->to.value()], hop_latency);
    } else {
      co_await sim_.wait(hop_latency);
    }
    if (lost) {
      ++messages_lost_;
      bytes_lost_ += size;
      throw DeliveryError("Network::deliver: message lost on link " +
                          topo_.node(link->from).name + "->" + topo_.node(link->to).name);
    }
  }
  if (crossed_wan) {
    ++wan_messages_;
    wan_bytes_ += size;
  }
}

}  // namespace mutsvc::net
