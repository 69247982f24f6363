#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "component/deployment.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace mutsvc::comp {

/// Versioned runtime component-location bindings (DESIGN §17).
///
/// The RAFDA position: distribution decisions are *data consulted at call
/// time*, not topology baked in at build time. Each logical component may
/// carry a runtime binding that overrides the static DeploymentPlan; the
/// dispatch path asks this table instead of the plan whenever a table is
/// installed. A component with no binding resolves through the plan with
/// exactly the plan's own rule (co-located replica, else primary), so an
/// installed-but-never-flipped table is indistinguishable — byte for byte —
/// from the static path.
///
/// Visibility model: a flip carries a `flip_at` instant and a small set of
/// `participants` (the migration's own sites, which learned of the flip
/// synchronously inside the protocol). Participants see the new binding at
/// `flip_at`; every other node sees it at `flip_at + notify_delay`, modeling
/// the asynchronous fan-out of a name-service update *as a pure time offset*
/// — no events are scheduled, so an unconsulted table costs nothing. During
/// the visibility window, stale views route to the old site, whose runtime
/// forwards stragglers to the new authority for one forwarding epoch.
/// Termination of forwarding is guaranteed by construction: the migration
/// manager validates notify_delay < forward_epoch, so every view has
/// converged before the old site stops forwarding.
///
/// Staged rollout: a flip may first be staged as a *canary*, routing a
/// configurable fraction of sessions (chosen by a deterministic hash of the
/// session key — no RNG draws, sticky per session) to the new location while
/// the rest stay on the old binding. Promotion turns the canary into a full
/// flip; cancellation drops it. Every mutation bumps the binding's version,
/// which is strictly monotone per component (asserted by the migration
/// property battery).
class BindingTable {
 public:
  struct Binding {
    /// Authoritative location set after the flip; first entry is the
    /// primary (same convention as DeploymentPlan placements).
    std::vector<net::NodeId> nodes;
    /// Pre-flip location set, served to views that have not converged yet.
    std::vector<net::NodeId> prev_nodes;
    /// Strictly monotone per component; bumped by every mutation.
    std::uint64_t version = 0;
    /// Instant the current `nodes` became authoritative.
    sim::SimTime flip_at;
    /// Visibility lag for non-participant nodes.
    sim::Duration notify_delay;
    /// Nodes that see the flip at flip_at exactly (migration participants).
    std::vector<net::NodeId> participants;
    /// Staged rollout: while canary_fraction > 0, sessions hashing under
    /// the fraction route to canary_nodes instead of `nodes`.
    std::vector<net::NodeId> canary_nodes;
    double canary_fraction = 0.0;
  };

  explicit BindingTable(const DeploymentPlan& plan) : plan_(&plan) {}

  /// Where a call from `from` at `now` for session `session_key` should be
  /// dispatched. Unbound components use the plan's rule verbatim.
  [[nodiscard]] net::NodeId resolve(const std::string& component, net::NodeId from,
                                    sim::SimTime now, std::uint64_t session_key) const;

  /// The fully-converged authority for a call that *arrived* at `at`: `at`
  /// itself when the current binding deploys the component there, else the
  /// binding's primary. Unbound components are authoritative wherever the
  /// plan dispatched them. The old site's dispatch path uses this to detect
  /// stragglers routed by a stale view.
  [[nodiscard]] net::NodeId authoritative(const std::string& component, net::NodeId at) const;

  /// True while the old site must forward stragglers for `component`
  /// (within forward_epoch of the last flip).
  [[nodiscard]] bool in_forward_epoch(const std::string& component, sim::SimTime now) const;

  /// The same three questions for a binding already looked up with find():
  /// the dispatch path keeps one pointer per component id (bindings are
  /// never erased, so a pointer stays valid for the table's lifetime).
  [[nodiscard]] static net::NodeId resolve(const Binding& b, net::NodeId from, sim::SimTime now,
                                           std::uint64_t session_key);
  [[nodiscard]] static net::NodeId authoritative(const Binding& b, net::NodeId at);
  [[nodiscard]] bool in_forward_epoch(const Binding& b, sim::SimTime now) const {
    return now >= b.flip_at && now < b.flip_at + forward_epoch_;
  }

  /// Full cutover: `nodes` becomes authoritative at `now`; non-participant
  /// views converge at `now + notify_delay`. Clears any staged canary.
  void flip(const std::string& component, std::vector<net::NodeId> nodes, sim::SimTime now,
            sim::Duration notify_delay, std::vector<net::NodeId> participants);

  /// Stages a canary: `fraction` of sessions route to `nodes`, the rest to
  /// the current binding (or the plan). Throws unless 0 < fraction <= 1.
  void stage_canary(const std::string& component, std::vector<net::NodeId> nodes,
                    double fraction);

  /// Promotes a staged canary to a full flip (see flip for semantics).
  void promote_canary(const std::string& component, sim::SimTime now,
                      sim::Duration notify_delay, std::vector<net::NodeId> participants);

  /// Drops a staged canary; the pre-canary binding stays authoritative.
  void cancel_canary(const std::string& component);

  /// Forwarding-epoch length applied after each flip.
  void set_forward_epoch(sim::Duration epoch) { forward_epoch_ = epoch; }
  [[nodiscard]] sim::Duration forward_epoch() const { return forward_epoch_; }

  /// Binding version for `component`; 0 = unbound (plan-resolved).
  [[nodiscard]] std::uint64_t version(const std::string& component) const;
  /// Largest version across all bindings (0 when nothing is bound).
  [[nodiscard]] std::uint64_t max_version() const;
  [[nodiscard]] const Binding* find(const std::string& component) const;
  [[nodiscard]] std::size_t bound_components() const { return bindings_.size(); }
  [[nodiscard]] std::uint64_t flips() const { return flips_; }

  /// Deterministic canary routing predicate: splitmix64 over
  /// (session_key, component-version salt), compared against the fraction.
  /// Sticky per session, no RNG draws, identical on every replay.
  [[nodiscard]] static bool canary_selects(std::uint64_t session_key, std::uint64_t salt,
                                           double fraction);

 private:
  /// The plan's dispatch rule over an explicit node set.
  [[nodiscard]] static net::NodeId resolve_in(const std::vector<net::NodeId>& nodes,
                                              net::NodeId from);
  [[nodiscard]] static bool contains(const std::vector<net::NodeId>& nodes, net::NodeId n);

  const DeploymentPlan* plan_;
  std::map<std::string, Binding> bindings_;
  sim::Duration forward_epoch_ = sim::sec(5);
  std::uint64_t flips_ = 0;
};

}  // namespace mutsvc::comp
