// Ablation A7 (robustness): message loss x resilience policy. Sweeps a
// per-link loss probability over a Pet Store run that also crash-restarts
// one edge server mid-run, and compares the middleware resilience layer
// (RMI retry/timeout/circuit breaker + degraded edge reads + queued writes)
// against the seed behavior (single attempt, failover only). Exits nonzero
// unless the repeated cell is bit-identical and the 2% cells bear out
// DESIGN §8's claim.
#include <functional>
#include <iostream>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "stats/table.hpp"

using namespace mutsvc;

namespace {

struct Outcome {
  double success = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failovers = 0;
  std::uint64_t lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_rejections = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t queued_writes = 0;
  std::uint64_t remote_browser_failures = 0;
  double remote_browser_ms = 0.0;  // over completed pages only
};

core::ExperimentSpec spec_for(double loss, bool resilient, net::NodeId edge,
                              std::uint64_t seed) {
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(900);
  spec.warmup = sim::sec(120);
  spec.seed = seed;
  spec.fault_plan.loss_prob = loss;
  // One edge server crashes a third of the way in and restarts cold two
  // minutes later (caches re-warmed through the runtime's restart hook).
  spec.fault_plan.crashes.push_back(net::FaultPlan::NodeCrash{edge, sim::sec(300), sim::sec(120)});
  spec.resilience.enabled = resilient;
  return spec;
}

net::NodeId probe_edge_node() {
  // Testbed construction is deterministic: learn the edge's NodeId from a
  // throwaway instance so the FaultPlan can reference it.
  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  core::Experiment probe{app.driver(), spec, core::petstore_calibration()};
  return probe.nodes().edge_servers[0];
}

Outcome run(double loss, bool resilient, net::NodeId edge, std::uint64_t seed = 42) {
  apps::petstore::PetStoreApp app;
  core::Experiment exp{app.driver(), spec_for(loss, resilient, edge, seed),
                       core::petstore_calibration()};
  exp.run();

  Outcome o;
  o.success = exp.results().success_fraction();
  o.failures = exp.results().failures();
  o.dropped = exp.dropped_requests();
  o.failovers = exp.failovers();
  o.lost = exp.network().messages_lost();
  o.retries = exp.rmi().retries();
  o.timeouts = exp.rmi().timeouts();
  o.breaker_opens = exp.rmi().breaker_opens();
  o.breaker_rejections = exp.rmi().breaker_rejections();
  o.degraded_reads = exp.runtime().degraded_reads();
  o.queued_writes = exp.runtime().queued_writes();
  o.remote_browser_failures =
      exp.results().pattern_failures("Browser", stats::ClientGroup::kRemote);
  o.remote_browser_ms = exp.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);
  return o;
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
  return buf;
}

}  // namespace

int main() {
  std::cout << "=== Ablation A7: message loss x resilience policy ===\n"
            << "(Pet Store, async-updates configuration, 15-minute run; one edge\n"
            << " server crash-restarts at minute 5 for 2 minutes in every cell)\n\n";

  const net::NodeId edge = probe_edge_node();
  const double losses[] = {0.0, 0.005, 0.02, 0.05};

  // Every cell is an isolated (spec, seed) trial; fan the whole grid — plus
  // the determinism pair — across the core::sweep worker pool. Results merge
  // in submission order, so the table is identical to the serial loop.
  struct Cell {
    double loss;
    bool resilient;
  };
  std::vector<Cell> cells;
  std::vector<std::function<Outcome()>> trials;
  for (double loss : losses) {
    for (bool resilient : {false, true}) {
      cells.push_back(Cell{loss, resilient});
      trials.push_back([loss, resilient, edge] { return run(loss, resilient, edge); });
    }
  }
  // Determinism spot check: the 2% resilient cell, twice with the same seed.
  trials.push_back([edge] { return run(0.02, true, edge, 7); });
  trials.push_back([edge] { return run(0.02, true, edge, 7); });

  std::vector<Outcome> outcomes = core::sweep::run_trials(std::move(trials));

  stats::TextTable table{{"loss/link", "resilience", "success", "failed pages", "failovers",
                          "msgs lost", "RMI retries", "timeouts", "breaker open/rej",
                          "degraded reads", "queued writes", "remote browser failed",
                          "remote browser mean, completed (ms)"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Outcome& o = outcomes[i];
    table.add_row({pct(cells[i].loss), cells[i].resilient ? "on" : "off", pct(o.success),
                   std::to_string(o.failures), std::to_string(o.failovers),
                   std::to_string(o.lost), std::to_string(o.retries),
                   std::to_string(o.timeouts),
                   std::to_string(o.breaker_opens) + "/" + std::to_string(o.breaker_rejections),
                   std::to_string(o.degraded_reads), std::to_string(o.queued_writes),
                   std::to_string(o.remote_browser_failures),
                   stats::TextTable::cell_ms(o.remote_browser_ms)});
  }
  table.print(std::cout);

  const Outcome& a = outcomes[cells.size()];
  const Outcome& b = outcomes[cells.size() + 1];
  const bool identical = a.failures == b.failures && a.lost == b.lost &&
                         a.retries == b.retries && a.degraded_reads == b.degraded_reads &&
                         a.success == b.success && a.remote_browser_ms == b.remote_browser_ms;
  std::cout << "\nDeterminism (2% loss, resilience on, seed 7, two runs): "
            << (identical ? "identical" : "DIVERGED") << "\n";

  // DESIGN §8's claim: at 2% per-link loss the policy holds at least 99.9%
  // page success, where the seed behaviour (one attempt) stays below 95%.
  double on2 = 0.0;
  double off2 = 1.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].loss != 0.02) continue;
    (cells[i].resilient ? on2 : off2) = outcomes[i].success;
  }
  const bool claim = on2 >= 0.999 && off2 < 0.95;
  std::cout << "Claim (2% loss): success " << pct(on2) << " with the policy (>= 99.90%), "
            << pct(off2) << " without (< 95.00%): " << (claim ? "holds" : "VIOLATED") << "\n";

  std::cout << "\nWith the policy off, every lost RMI message fails the whole page and\n"
            << "loss compounds per hop; the success rate collapses as loss grows. With\n"
            << "it on, per-call timeouts and retries absorb transient loss, the circuit\n"
            << "breaker turns a dead master into fast local failures, and the edges\n"
            << "keep serving bounded-stale reads. Every writing facade runs on the main\n"
            << "server here, so no edge queues a write (queued writes stay 0); the\n"
            << "queued-write path is covered by\n"
            << "DegradedModeTest.PartitionServesStaleReadsAndQueuesWrites.\n"
            << "The remote browser mean is over completed pages only: without the\n"
            << "policy a failed page leaves it, so read it beside the failed count.\n";
  return identical && claim ? 0 : 1;
}
