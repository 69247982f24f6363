#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "apps/common/driver.hpp"
#include "component/binding.hpp"
#include "component/controller.hpp"
#include "component/migration.hpp"
#include "component/runtime.hpp"
#include "core/calibration.hpp"
#include "core/design_rules.hpp"
#include "core/testbed.hpp"
#include "db/database.hpp"
#include "net/faults.hpp"
#include "net/flowcontrol.hpp"
#include "net/http.hpp"
#include "net/network.hpp"
#include "net/resilience.hpp"
#include "net/rmi.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "stats/collector.hpp"
#include "workload/arrivals.hpp"
#include "workload/loadgen.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::core {

/// Scale-out data tier configuration (extends §4.5 beyond the paper's
/// single-RDBMS testbed). Defaults reproduce the paper exactly.
struct ShardConfig {
  /// Hash-partitioned database shards; each gets its own node and service
  /// resource on the main site's LAN (shard 0 keeps the single-DB
  /// placement, so 1 is the unsharded baseline bit for bit). Async updates
  /// publish on one topic per shard.
  std::size_t shards = 1;
};

/// Million-session FSM load engine configuration (DESIGN §16). Opt-in: the
/// paper ladder keeps the per-session coroutine driver; enabling this
/// replaces it with 40-byte session records in a flat arena, so one trial
/// can hold millions of concurrent sessions. It is also the one open-loop
/// arrival layer (the flash-crowd regime, DESIGN §13).
struct FsmLoadSpec {
  bool enabled = false;
  /// Empty: a closed-loop population per client group, sized like the
  /// coroutine driver (LoadGenerator::split_clients). Non-empty: sessions
  /// *arrive* instead; the envelope is the combined session-arrival rate
  /// (nonhomogeneous Poisson), split evenly across client groups and
  /// browser/writer by browser_fraction, and each arriving session runs one
  /// script and leaves. Diurnal curves and flash-crowd steps come from the
  /// RateEnvelope factories.
  workload::RateEnvelope arrivals;
  /// Per-client-group arrival envelopes, overriding the even split of
  /// `arrivals`: index 0 is the local group, 1 and 2 the remote groups (in
  /// TestbedNodes order). Groups beyond the vector fall back to the shared
  /// `arrivals` split. Lets a diurnal bench put antiphase day/night curves
  /// on different sites (see RateEnvelope::shifted).
  std::vector<workload::RateEnvelope> group_arrivals;
  /// Zipf exponent for item popularity inside the scripts (0 = the paper's
  /// uniform catalog use). Positive values concentrate traffic on the few
  /// hottest items — and therefore on one hot shard of the sharded tier.
  double zipf_s = 0.0;
  /// Calendar bucket width of the engine's due-time calendar.
  sim::Duration calendar_quantum = sim::ms(100);
};

/// Run parameters (§3.3): one hour of combined 30 req/s load from an 80/20
/// browser/writer mix, split equally across three client groups, after a
/// warm-up. Defaults are a scaled-down run; the table benches use the full
/// paper-scale parameters.
struct ExperimentSpec {
  ConfigLevel level = ConfigLevel::kCentralized;
  sim::Duration duration = sim::sec(600);
  sim::Duration warmup = sim::sec(60);
  double total_request_rate = 30.0;
  double browser_fraction = 0.8;
  std::uint64_t seed = 42;
  workload::LoadGenConfig loadgen;
  /// When set, deploys this plan instead of the `level` ladder rung (used
  /// by the placement advisor to run machine-derived plans). Receives the
  /// freshly built testbed's node handles.
  std::function<comp::DeploymentPlan(const TestbedNodes&)> custom_plan;

  /// Entry-point failover (the availability motivation of §1): when a
  /// client cannot reach its assigned server, it notices after this
  /// connection timeout and retries at the main server. Only
  /// `failover_enabled = false` turns failover off (unreachable requests
  /// are then dropped after the timeout); a zero timeout fails over at once.
  sim::Duration failover_timeout = sim::sec(2);
  bool failover_enabled = true;

  /// Scale-out data tier (1 shard = the paper's testbed).
  ShardConfig shard;

  /// Injected faults for this run (empty = fault-free, the default).
  net::FaultPlan fault_plan;
  /// Middleware resilience policy: RMI retry/timeout/circuit-breaker plus
  /// client-side whole-page retries. Disabled by default (seed behavior).
  net::ResilienceConfig resilience;
  /// Overload protection: per-entry-node admission control. Off by default
  /// (zero rate). The constructor refuses any other rate, with its burst,
  /// that `net::TokenBucket` refuses.
  net::FlowControlConfig flow;
  /// Million-session FSM load engine and its session arrivals (DESIGN §16).
  FsmLoadSpec fsm_load;

  /// Runtime placement: versioned component bindings, live migration, and
  /// the deterministic placement controller (DESIGN §17). Off by default —
  /// a disabled config constructs nothing and the run is byte-identical to
  /// the static-placement harness; enabled with no policy installs the
  /// binding table but spawns no controller (still byte-identical,
  /// golden-enforced).
  comp::PlacementConfig placement;
};

/// One full testbed run: Figure 2 topology + application + configuration
/// rung + client load; collects per-page and per-pattern response times.
class Experiment final : public workload::RequestExecutor {
 public:
  Experiment(const apps::AppDriver& driver, ExperimentSpec spec, HarnessCalibration cal);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the full load for spec.duration of simulated time.
  void run();

  [[nodiscard]] const stats::ResponseTimeCollector& results() const { return collector_; }

  /// Enables windowed time-series collection (call before run()).
  void enable_timeseries(sim::Duration window) { collector_.enable_timeseries(window); }

  /// Enables per-node metrics collection (call before run()): the transports
  /// mirror their resilience counters live, cache/topic/consistency gauges
  /// are sampled every `window`, and post-warm-up response times feed a
  /// fixed-bucket latency histogram ("response_ms") on the main server's
  /// registry. Off by default — enabling adds only read-only sampling, so
  /// the simulated trajectory is unchanged. The histogram takes the
  /// collector's single observer hook, so combining this with
  /// set_response_observer throws std::logic_error (in either order).
  void enable_metrics(sim::Duration window);
  [[nodiscard]] stats::MetricsRegistry& metrics(net::NodeId node) {
    return runtime_->metrics(node);
  }
  [[nodiscard]] comp::Runtime& runtime() { return *runtime_; }
  /// Null unless spec.placement.enabled.
  [[nodiscard]] comp::BindingTable* bindings() { return bindings_.get(); }
  [[nodiscard]] comp::MigrationManager* migrator() { return migrator_.get(); }
  /// Null unless spec.placement.enabled with a policy installed.
  [[nodiscard]] comp::PlacementController* placement_controller() { return controller_.get(); }
  [[nodiscard]] const TestbedNodes& nodes() const { return nodes_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] net::RmiTransport& rmi() { return rmi_; }
  /// Null when the spec's FaultPlan is empty.
  [[nodiscard]] net::FaultInjector* fault_injector() { return faults_.get(); }
  [[nodiscard]] db::Database& database() { return *db_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Post-warm-up mean CPU utilization of a node (the paper kept app
  /// servers under 40% and the DB under 5%).
  [[nodiscard]] double cpu_utilization(net::NodeId node) {
    return topo_.node(node).cpu->utilization();
  }

  // workload::RequestExecutor: one HTTP page request end to end, with
  // admission control at the entry node (when spec.flow sets a rate),
  // entry-point failover on unreachable servers and (when resilience is
  // enabled) bounded whole-page retries on transient network faults.
  // kFailed means the request was ultimately dropped; kRejected means
  // admission refused it up front.
  [[nodiscard]] sim::Task<workload::RequestOutcome> execute(
      net::NodeId client_node, const workload::PageRequest& request) override;

  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t dropped_requests() const { return dropped_; }

  /// Lookahead domain a node executes in (after the async-update coupling
  /// merge). Always installed: the domain-tagged event order is the one the
  /// ladder goldens were recorded in.
  [[nodiscard]] sim::Simulator::DomainId domain_of(net::NodeId n) const {
    return node_domains_[n.value()];
  }

  // --- admission accounting -------------------------------------------------
  // Counted at execute() entry, so the identity
  //   pages_started == requests_admitted + rejected_admission
  // holds exactly at any instant. The drivers count requests at the same
  // moment they hand the page to execute(), so pages_started ==
  // requests_issued as well.
  [[nodiscard]] std::uint64_t pages_started() const {
    return requests_admitted() + rejected_admission();
  }
  [[nodiscard]] std::uint64_t requests_admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t rejected_admission() const { return rejected_admission_; }

  /// Lets a bench observe every post-warm-up response sample (milliseconds)
  /// without enabling the full metrics pipeline. Mutually exclusive with
  /// enable_metrics (both install the collector's single observer hook):
  /// combining them throws std::logic_error, in either order.
  void set_response_observer(std::function<void(double)> obs);

  /// Page requests the active driver issued, counted at issue time (the
  /// documented end-of-run rule: nothing issues at or after end_at, and a
  /// completion landing after end_at records whenever the simulation runs
  /// it). The conservation identity — issued == recorded samples +
  /// failures + rejections + discarded warm-up samples + in-flight — holds
  /// exactly at any instant; the shard property battery asserts it across
  /// the config ladder.
  [[nodiscard]] std::uint64_t requests_issued() const {
    std::uint64_t n = loadgen_ ? loadgen_->requests_issued() : 0;
    for (const auto& e : fsm_engines_) n += e->requests_issued();
    return n;
  }
  [[nodiscard]] std::uint64_t requests_completed() const {
    std::uint64_t n = loadgen_ ? loadgen_->requests_completed() : 0;
    for (const auto& e : fsm_engines_) n += e->requests_completed();
    return n;
  }
  /// Issued before end_at but still awaiting a response (truncated runs
  /// leave these permanently in flight).
  [[nodiscard]] std::uint64_t requests_in_flight() const {
    return requests_issued() - requests_completed();
  }
  [[nodiscard]] std::uint64_t sessions_started() const {
    std::uint64_t n = loadgen_ ? loadgen_->sessions_started() : 0;
    for (const auto& e : fsm_engines_) n += e->sessions_started();
    return n;
  }

  // --- FSM load engine observability (empty unless fsm_load.enabled) -------
  [[nodiscard]] std::size_t fsm_live_sessions() const {
    std::size_t n = 0;
    for (const auto& e : fsm_engines_) n += e->live_sessions();
    return n;
  }
  [[nodiscard]] std::size_t fsm_peak_live_sessions() const {
    std::size_t n = 0;
    for (const auto& e : fsm_engines_) n += e->peak_live_sessions();
    return n;
  }
  [[nodiscard]] std::size_t fsm_arena_bytes() const {
    std::size_t n = 0;
    for (const auto& e : fsm_engines_) n += e->arena_bytes();
    return n;
  }

  /// Issues one page request with full trace collection: the sink receives
  /// the per-category time breakdown (HTTP wire, queueing, CPU, JDBC, RMI,
  /// lock waits, push/publish, ...). Used by the breakdown benchmarks.
  [[nodiscard]] sim::Task<void> execute_traced(net::NodeId client_node,
                                               const workload::PageRequest& request,
                                               comp::TraceSink& sink);

 private:
  /// Partitions the testbed into lookahead domains (LAN islands, with
  /// async-update-coupled islands merged into the main one) and installs
  /// domain tagging on the kernel, the network and the RMI streams. Must
  /// run before any component schedules an event, so it is called before
  /// the Runtime is built.
  void setup_domains(const comp::DeploymentPlan& plan);

  /// Builds the per-group coroutine load (the paper's driver) for run().
  void start_coroutine_load(sim::SimTime end);
  /// Builds one SessionFsmEngine per client group (fsm_load.enabled).
  void start_fsm_load(sim::SimTime end);

  [[nodiscard]] sim::FifoResource& thread_pool(net::NodeId server);

  [[nodiscard]] sim::Task<void> execute_at(net::NodeId client_node, net::NodeId server,
                                           const workload::PageRequest& request,
                                           comp::TraceSink* trace = nullptr);

  /// Periodic read-only snapshot of runtime gauges into the registries.
  [[nodiscard]] sim::Task<void> metrics_sampler(sim::SimTime end);

  apps::AppDriver driver_;
  ExperimentSpec spec_;
  HarnessCalibration cal_;

  sim::Simulator sim_;
  net::Topology topo_;
  TestbedNodes nodes_;
  net::Network net_;
  net::HttpTransport http_;
  net::RmiTransport rmi_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<comp::Runtime> runtime_;
  // Runtime placement (all null when spec.placement is disabled). Declared
  // after runtime_: they hold references into it and must be destroyed
  // first.
  std::unique_ptr<comp::BindingTable> bindings_;
  std::unique_ptr<comp::MigrationManager> migrator_;
  std::unique_ptr<comp::PlacementController> controller_;
  std::unique_ptr<net::FaultInjector> faults_;
  stats::ResponseTimeCollector collector_;
  std::unique_ptr<workload::LoadGenerator> loadgen_;
  /// One FSM engine per client group (fsm_load.enabled), each living in its
  /// group's lookahead domain.
  std::vector<std::unique_ptr<workload::SessionFsmEngine>> fsm_engines_;
  std::map<net::NodeId, std::unique_ptr<sim::FifoResource>> thread_pools_;
  /// One admission bucket per entry node (lazily created; empty unless
  /// spec.flow.admission_rate is positive).
  std::map<net::NodeId, net::TokenBucket> admission_;
  /// Node → lookahead domain after the coupling merge; installed on the
  /// kernel and the network at construction.
  std::vector<sim::Simulator::DomainId> node_domains_;
  std::uint64_t failovers_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_admission_ = 0;
  /// Which call installed the collector's observer hook (enable_metrics or
  /// set_response_observer); the other one is then refused.
  bool metrics_enabled_ = false;
  bool response_observer_set_ = false;
  sim::Duration metrics_window_ = sim::Duration::zero();
  std::uint64_t trace_counter_ = 0;
};

}  // namespace mutsvc::core
