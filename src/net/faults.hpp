#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mutsvc::net {

/// Declarative description of every fault a run should experience.
///
/// All time fields are offsets from `SimTime::origin()`, so a plan is
/// independent of when the experiment is constructed. A default-constructed
/// plan is inert (`empty()` is true) and injects nothing.
struct FaultPlan {
  // --- stochastic per-link behaviour --------------------------------------
  /// Probability that one message traversal of one link loses the message.
  double loss_prob = 0.0;

  /// Per-link loss overrides (duplex: matches both directions).
  struct LinkLoss {
    NodeId a, b;
    double prob = 0.0;
  };
  std::vector<LinkLoss> link_loss;

  // --- scheduled faults ---------------------------------------------------
  /// Crashes `node` at `crash_at`; it restarts `down_for` later with cold
  /// caches (the restart listener lets the runtime drop that node's
  /// ReadOnlyCache / QueryCache contents).
  struct NodeCrash {
    NodeId node;
    sim::Duration crash_at;
    sim::Duration down_for;
  };
  std::vector<NodeCrash> crashes;

  /// Cuts every link with exactly one endpoint in `members` (a clean
  /// network partition), healing `heal_after` later.
  struct Partition {
    std::vector<NodeId> members;
    sim::Duration start_at;
    sim::Duration heal_after;
  };
  std::vector<Partition> partitions;

  [[nodiscard]] bool empty() const {
    return loss_prob <= 0.0 && link_loss.empty() && crashes.empty() && partitions.empty();
  }
};

/// Seeded, deterministic driver of a `FaultPlan`.
///
/// Loss draws come from a named stream forked off the simulator's root RNG,
/// so the same seed and plan always produce the same fault sequence. The
/// injector owns the scheduled state transitions (crashes, partitions);
/// `Network::deliver` consults it per hop for loss.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, Topology& topo, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every planned crash and partition. Call once, before the
  /// run.
  void arm();

  /// Invoked with the node id when a crashed node restarts (cache re-warm
  /// hook). Set before `arm()`.
  void set_restart_listener(std::function<void(NodeId)> fn) { on_restart_ = std::move(fn); }

  /// One message is about to traverse `link`: does it get dropped?
  [[nodiscard]] bool lose_message(const Link& link);

  // --- accounting ---------------------------------------------------------
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  [[nodiscard]] double loss_prob_for(const Link& link) const;
  void set_partition(const std::vector<NodeId>& members, bool cut);

  sim::Simulator& sim_;
  Topology& topo_;
  FaultPlan plan_;
  sim::RngStream loss_rng_;
  std::function<void(NodeId)> on_restart_;

  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace mutsvc::net
