#include "component/binding.hpp"

#include <algorithm>
#include <stdexcept>

namespace mutsvc::comp {

namespace {
/// splitmix64 finalizer (local copy: component/ does not depend on
/// workload/). Pure function, so canary routing is replay-identical.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

bool BindingTable::contains(const std::vector<net::NodeId>& nodes, net::NodeId n) {
  for (net::NodeId x : nodes) {
    if (x == n) return true;
  }
  return false;
}

net::NodeId BindingTable::resolve_in(const std::vector<net::NodeId>& nodes, net::NodeId from) {
  if (nodes.empty()) {
    throw std::logic_error("BindingTable: binding with an empty node set");
  }
  if (contains(nodes, from)) return from;
  return nodes.front();
}

bool BindingTable::canary_selects(std::uint64_t session_key, std::uint64_t salt,
                                  double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  // Threshold comparison in the top 53 bits: exact for every fraction a
  // double can represent, bit-identical everywhere.
  const auto threshold = static_cast<std::uint64_t>(fraction * 9007199254740992.0);  // 2^53
  return (mix64(session_key ^ mix64(salt)) >> 11) < threshold;
}

net::NodeId BindingTable::resolve(const std::string& component, net::NodeId from,
                                  sim::SimTime now, std::uint64_t session_key) const {
  const auto it = bindings_.find(component);
  if (it == bindings_.end()) return plan_->resolve(component, from);
  return resolve(it->second, from, now, session_key);
}

net::NodeId BindingTable::resolve(const Binding& b, net::NodeId from, sim::SimTime now,
                                  std::uint64_t session_key) {
  const sim::SimTime visible_at =
      contains(b.participants, from) ? b.flip_at : b.flip_at + b.notify_delay;
  if (now < visible_at) return resolve_in(b.prev_nodes, from);
  if (b.canary_fraction > 0.0 &&
      canary_selects(session_key, b.version * 0x632be59bd9b4e019ULL, b.canary_fraction)) {
    return resolve_in(b.canary_nodes, from);
  }
  return resolve_in(b.nodes, from);
}

net::NodeId BindingTable::authoritative(const std::string& component, net::NodeId at) const {
  const auto it = bindings_.find(component);
  if (it == bindings_.end()) return at;
  return authoritative(it->second, at);
}

net::NodeId BindingTable::authoritative(const Binding& b, net::NodeId at) {
  // A canary deliberately routes selected sessions to the canary site; a
  // call arriving there (or at any current-binding site) is not a straggler.
  if (b.canary_fraction > 0.0 && contains(b.canary_nodes, at)) return at;
  if (contains(b.nodes, at)) return at;
  return b.nodes.front();
}

bool BindingTable::in_forward_epoch(const std::string& component, sim::SimTime now) const {
  const auto it = bindings_.find(component);
  return it != bindings_.end() && in_forward_epoch(it->second, now);
}

void BindingTable::flip(const std::string& component, std::vector<net::NodeId> nodes,
                        sim::SimTime now, sim::Duration notify_delay,
                        std::vector<net::NodeId> participants) {
  if (nodes.empty()) throw std::invalid_argument("BindingTable::flip: empty node set");
  Binding& b = bindings_[component];
  // Pre-flip location: the previous binding when one exists, else the
  // plan's static placement (the very first flip retires the plan's view).
  b.prev_nodes = b.version > 0 ? std::move(b.nodes) : plan_->nodes_of(component);
  b.nodes = std::move(nodes);
  b.flip_at = now;
  b.notify_delay = notify_delay;
  b.participants = std::move(participants);
  b.canary_nodes.clear();
  b.canary_fraction = 0.0;
  ++b.version;
  ++flips_;
}

void BindingTable::stage_canary(const std::string& component, std::vector<net::NodeId> nodes,
                                double fraction) {
  if (nodes.empty()) throw std::invalid_argument("BindingTable::stage_canary: empty node set");
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("BindingTable::stage_canary: fraction must be in (0, 1]");
  }
  Binding& b = bindings_[component];
  if (b.version == 0) {
    // First binding for this component: the non-canary path must keep
    // resolving exactly like the plan.
    b.nodes = plan_->nodes_of(component);
    b.prev_nodes = b.nodes;
  }
  b.canary_nodes = std::move(nodes);
  b.canary_fraction = fraction;
  ++b.version;
}

void BindingTable::promote_canary(const std::string& component, sim::SimTime now,
                                  sim::Duration notify_delay,
                                  std::vector<net::NodeId> participants) {
  const auto it = bindings_.find(component);
  if (it == bindings_.end() || it->second.canary_fraction <= 0.0) {
    throw std::logic_error("BindingTable::promote_canary: no staged canary for " + component);
  }
  std::vector<net::NodeId> nodes = it->second.canary_nodes;
  flip(component, std::move(nodes), now, notify_delay, std::move(participants));
}

void BindingTable::cancel_canary(const std::string& component) {
  const auto it = bindings_.find(component);
  if (it == bindings_.end() || it->second.canary_fraction <= 0.0) return;
  Binding& b = it->second;
  b.canary_nodes.clear();
  b.canary_fraction = 0.0;
  ++b.version;
}

std::uint64_t BindingTable::version(const std::string& component) const {
  const auto it = bindings_.find(component);
  return it == bindings_.end() ? 0 : it->second.version;
}

std::uint64_t BindingTable::max_version() const {
  std::uint64_t v = 0;
  for (const auto& [name, b] : bindings_) v = std::max(v, b.version);
  return v;
}

const BindingTable::Binding* BindingTable::find(const std::string& component) const {
  const auto it = bindings_.find(component);
  return it == bindings_.end() ? nullptr : &it->second;
}

}  // namespace mutsvc::comp
