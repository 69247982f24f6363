#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stats/collector.hpp"
#include "workload/session.hpp"

namespace mutsvc::workload {

/// How one page request ended, as the client sees it.
enum class RequestOutcome {
  kOk,        // page served
  kFailed,    // dropped after the harness exhausted its recovery options
  kRejected,  // refused up front by admission control (overload shedding)
};

/// How a page request actually reaches the service; implemented by the
/// experiment harness (HTTP + container runtime). Implementations must not
/// leak exceptions — an escaping exception kills the client task.
class RequestExecutor {
 public:
  virtual ~RequestExecutor() = default;
  [[nodiscard]] virtual sim::Task<RequestOutcome> execute(net::NodeId client_node,
                                                          const PageRequest& request) = 0;
};

/// One group of client machines co-located with an application server
/// (§3.1: "three client machines for each application server").
struct ClientGroupSpec {
  net::NodeId client_node;          // the LAN node the clients sit on
  stats::ClientGroup group = stats::ClientGroup::kLocal;
  double requests_per_second = 10;  // this group's share of the combined load
  double browser_fraction = 0.8;    // §3.3: 80% browsers, 20% buyers/bidders
  SessionFactory browser_factory;
  SessionFactory writer_factory;    // buyer (Pet Store) / bidder (RUBiS)
};

struct LoadGenConfig {
  /// Soft inter-request DELAY (§3.3): the interval between *sending*
  /// requests, independent of response time.
  sim::Duration think_time = sim::sec(7);
  /// Pause between consecutive sessions of one simulated client.
  sim::Duration between_sessions = sim::sec(2);
};

/// Closed-loop client driver implementing §3.3.
///
/// Each group runs `round(rate * think_time)` concurrent clients; a client
/// repeatedly executes sessions, waiting `DELAY - response_time` (clamped
/// at zero) after each request — the paper's soft delay, which keeps the
/// offered load steady regardless of response times. Open-loop session
/// arrivals are the FSM engine's (SessionFsmEngine::start_arrivals).
///
/// End-of-run rule (shared with SessionFsmEngine): requests are counted
/// when they are *issued*; no request is issued at or after `end_at`, and
/// a response landing after `end_at` is recorded whenever the simulation
/// runs it. At any instant
/// `requests_issued() == requests_completed() + requests_in_flight()`.
class LoadGenerator {
 public:
  /// How start_group splits a group's client fleet between the two session
  /// kinds. The *total* is rounded first and the writer share is carved out
  /// of it (writers = total - browsers): rounding the two shares
  /// independently can drift from round(rate * think) and lets a low-rate
  /// group round to zero clients and silently offer no load — any positive
  /// rate gets at least one client.
  struct ClientSplit {
    int browsers = 0;
    int writers = 0;
    [[nodiscard]] int total() const { return browsers + writers; }
  };
  [[nodiscard]] static ClientSplit split_clients(double requests_per_second,
                                                double browser_fraction,
                                                sim::Duration think_time);

  LoadGenerator(sim::Simulator& sim, RequestExecutor& executor,
                stats::ResponseTimeCollector& collector, LoadGenConfig cfg = {})
      : sim_(sim), executor_(executor), collector_(collector), cfg_(cfg) {}

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Spawns all client tasks for `spec`. Clients run until `end_at`.
  void start_group(const ClientGroupSpec& spec, sim::SimTime end_at, sim::RngStream rng);

  /// Page requests handed to the executor, counted at issue time.
  [[nodiscard]] std::uint64_t requests_issued() const { return requests_; }
  /// Requests whose outcome has been recorded.
  [[nodiscard]] std::uint64_t requests_completed() const { return completed_; }
  /// Issued but not yet completed — nonzero at end_at when responses are
  /// still on the wire (those requests stay counted as issued).
  [[nodiscard]] std::uint64_t requests_in_flight() const {
    return requests_issued() - requests_completed();
  }
  /// Sessions the clients began, one per script taken from a factory.
  [[nodiscard]] std::uint64_t sessions_started() const { return sessions_; }

 private:
  [[nodiscard]] sim::Task<void> run_client(ClientGroupSpec spec, bool is_browser,
                                           sim::SimTime end_at, sim::RngStream rng);
  void record_outcome(const ClientGroupSpec& spec, const PageRequest& req,
                      RequestOutcome outcome, sim::Duration response_time);

  sim::Simulator& sim_;
  RequestExecutor& executor_;
  stats::ResponseTimeCollector& collector_;
  LoadGenConfig cfg_;
  std::uint64_t requests_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t sessions_ = 0;
};

}  // namespace mutsvc::workload
