#include "net/faults.hpp"

#include <algorithm>

namespace mutsvc::net {

FaultInjector::FaultInjector(sim::Simulator& sim, Topology& topo, FaultPlan plan)
    : sim_(sim),
      topo_(topo),
      plan_(std::move(plan)),
      loss_rng_(sim.rng().fork("fault-loss")) {}

double FaultInjector::loss_prob_for(const Link& link) const {
  for (const auto& o : plan_.link_loss) {
    if ((o.a == link.from && o.b == link.to) || (o.a == link.to && o.b == link.from)) {
      return o.prob;
    }
  }
  return plan_.loss_prob;
}

bool FaultInjector::lose_message(const Link& link) {
  const double p = loss_prob_for(link);
  return p > 0.0 && loss_rng_.bernoulli(p);
}

void FaultInjector::set_partition(const std::vector<NodeId>& members, bool cut) {
  auto inside = [&](NodeId n) {
    return std::find(members.begin(), members.end(), n) != members.end();
  };
  for (Link* l : topo_.all_links()) {
    if (inside(l->from) != inside(l->to)) l->up = !cut;
  }
  topo_.invalidate_routes();
}

void FaultInjector::arm() {
  const sim::SimTime origin = sim::SimTime::origin();
  for (const FaultPlan::NodeCrash& c : plan_.crashes) {
    sim_.schedule_at(origin + c.crash_at, [this, c] {
      ++crashes_;
      topo_.set_node_state(c.node, false);
    });
    sim_.schedule_at(origin + c.crash_at + c.down_for, [this, c] {
      ++restarts_;
      topo_.set_node_state(c.node, true);
      // The restarted server comes back with cold caches: whoever owns the
      // cached state (the component runtime) drops it here.
      if (on_restart_) on_restart_(c.node);
    });
  }
  for (const FaultPlan::Partition& p : plan_.partitions) {
    sim_.schedule_at(origin + p.start_at, [this, p] { set_partition(p.members, true); });
    sim_.schedule_at(origin + p.start_at + p.heal_after,
                     [this, p] { set_partition(p.members, false); });
  }
}

}  // namespace mutsvc::net
