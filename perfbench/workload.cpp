// One benchmark workload, run once in this process, reported as one JSON
// object on stdout. perfbench/run.py spawns this program once per
// repetition and aggregates the repetitions into the benchmark's metrics.
//
//   perfbench_workload --workload <name> --seed <n> [--mode plain|traced]
//                      [--length full|smoke] [--setup-reps <k>]
//
// Workloads (see BENCHMARK.json for why each exists):
//   petstore_ladder    the five §4 rungs of Pet Store, one after another
//   rubis_ladder       the same ladder on RUBiS
//   fleet_1m           1M resident FSM sessions on a bare Simulator
//   placement_diurnal  the runtime-placement controller under antiphase
//                      diurnal FSM arrivals (Pet Store async rung)
//
// `plain` drives the library exactly as a user does (Experiment::run with
// library defaults) and times it. `traced` drives the same traffic through
// the benchmark's own load drivers and an executor that calls
// Experiment::execute_traced with one TraceSink per request, folding every
// post-warm-up request's exclusive per-SpanKind totals into run-wide sums.
//
// The program only uses the library's public API and changes nothing in it.
// Every simulated outcome is folded into an FNV-1a digest, so two builds can
// be compared bit for bit.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "component/controller.hpp"
#include "component/deployment.hpp"
#include "component/trace.hpp"
#include "core/calibration.hpp"
#include "core/design_rules.hpp"
#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stats/collector.hpp"
#include "workload/arrivals.hpp"
#include "workload/loadgen.hpp"
#include "workload/session_fsm.hpp"

namespace perfbench {

using namespace mutsvc;

// --- host clocks ------------------------------------------------------------

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
/// Host time is the process's CPU time, not wall time: on a shared virtual
/// machine the wall clock also counts the time the hypervisor gives this
/// vCPU to other guests (steal), which the CPU clock leaves out.
double cpu_now() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Host-time checkpoints inside a run: an event every `interval` of
/// simulated time reads the CPU clock, splitting the run phase into
/// segments that run.py times separately (each segment's fastest
/// repetition). The events touch no model state and are all scheduled
/// before the run starts, so every later event's sequence number shifts by
/// the same amount and the trajectory is unchanged; `events()` is taken off
/// the reported event count.
class SegmentClock {
 public:
  SegmentClock(sim::Simulator& sim, sim::Duration run_length, sim::Duration interval) {
    for (sim::Duration at = interval; at < run_length; at += interval) {
      sim.schedule_at(sim::SimTime::origin() + at, [this] { marks_.push_back(cpu_now()); });
      ++events_;
    }
  }
  SegmentClock(const SegmentClock&) = delete;
  SegmentClock& operator=(const SegmentClock&) = delete;

  void start() { start_ = cpu_now(); }
  /// Appends the durations of the segments that ended by now.
  void finish(std::vector<double>& out) const {
    double prev = start_;
    for (double mark : marks_) {
      out.push_back(mark - prev);
      prev = mark;
    }
    out.push_back(cpu_now() - prev);
  }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::vector<double> marks_;
  double start_ = 0.0;
  std::uint64_t events_ = 0;
};

// --- results ----------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Run-wide exclusive span totals of the traced run, in integer microseconds.
struct SpanTotals {
  std::array<std::int64_t, static_cast<std::size_t>(comp::SpanKind::kCount_)> us{};
  std::int64_t elapsed_us = 0;        // sum of the folded requests' response times
  std::int64_t recorded_us = 0;       // sum of the collector's samples, re-quantized
  std::uint64_t requests = 0;         // folded (post-warm-up) requests
  std::uint64_t nonconforming = 0;    // requests whose spans miss their response time
  std::uint64_t overcounted = 0;      // requests whose spans exceed their response time
  std::uint64_t open_spans = 0;       // requests that left a span open

  void fold(const comp::TraceSink& sink, sim::Duration elapsed) {
    for (std::size_t k = 0; k < us.size(); ++k) {
      us[k] += sink.total(static_cast<comp::SpanKind>(k)).count_micros();
    }
    elapsed_us += elapsed.count_micros();
    ++requests;
    if (!sink.conforms(elapsed)) ++nonconforming;
    if (sink.sum() > elapsed) ++overcounted;
    if (sink.open_span_count() != 0) ++open_spans;
  }
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::vector<double> run_s;    // host CPU time of each run-phase segment
  std::vector<double> setup_s;  // one entry per set-up repetition (CPU time)
  // Simulated outcome, summed over every experiment of the workload.
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t discarded = 0;
  std::uint64_t in_flight = 0;
  std::vector<double> responses_ms;  // every post-warm-up sample, in record order
  std::map<std::string, double> layers;
  std::uint64_t ro_hits = 0, ro_lookups = 0;
  std::uint64_t query_hits = 0, query_lookups = 0;
  std::uint64_t stub_hits = 0, stub_lookups = 0;
  std::optional<SpanTotals> spans;
  std::vector<Check> checks;
  Digest digest;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
  void add(const std::string& key, double v) { layers[key] += v; }
};

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;
  bool smoke = false;
  int setup_reps = -1;  // -1: the workload's default
};

// --- traced executors -------------------------------------------------------

/// Sends each page through Experiment::execute_traced with a fresh
/// TraceSink and folds post-warm-up requests into `totals`. Mirrors
/// Experiment::execute for fault-free runs: the placement controller's
/// entry-page counter is bumped the same way, so the controller sees the
/// same load signal.
class TracingExecutor final : public workload::RequestExecutor {
 public:
  TracingExecutor(core::Experiment& exp, sim::SimTime warm_end, bool count_entry_pages,
                  SpanTotals& totals)
      : exp_(exp), warm_end_(warm_end), count_entry_pages_(count_entry_pages), totals_(totals) {}

  [[nodiscard]] sim::Task<workload::RequestOutcome> execute(
      net::NodeId client, const workload::PageRequest& request) override {
    sim::Simulator& s = exp_.simulator();
    if (count_entry_pages_) {
      const net::NodeId server = exp_.runtime().plan().entry_point(client);
      exp_.runtime().metrics(server).inc(comp::PlacementController::kEntryPagesCounter);
    }
    comp::TraceSink sink;
    const sim::SimTime t0 = s.now();
    bool failed = false;
    try {
      co_await exp_.execute_traced(client, request, sink);
    } catch (const net::NetError&) {
      failed = true;
    }
    if (failed) co_return workload::RequestOutcome::kFailed;
    if (s.now() >= warm_end_) totals_.fold(sink, s.now() - t0);
    co_return workload::RequestOutcome::kOk;
  }

 private:
  core::Experiment& exp_;
  sim::SimTime warm_end_;
  bool count_entry_pages_;
  SpanTotals& totals_;
};

/// The fleet's stub service: every request is answered after an
/// exponentially distributed delay (5 ms mean) drawn from a seeded stream,
/// with no component, network or database behind it. Traced, the delay is
/// the request's container residence.
class StubExecutor final : public workload::RequestExecutor {
 public:
  StubExecutor(sim::Simulator& sim, std::uint64_t seed, SpanTotals* totals)
      : sim_(sim), rng_(workload::SmallRng::named_seed(seed, "perfbench-stub")), totals_(totals) {}

  [[nodiscard]] sim::Task<workload::RequestOutcome> execute(
      net::NodeId, const workload::PageRequest&) override {
    const auto micros = std::max<std::int64_t>(1, std::llround(rng_.exponential(5000.0)));
    const sim::Duration delay = sim::Duration::micros(micros);
    co_await sim_.wait(delay);
    if (totals_ != nullptr) {
      comp::TraceSink sink;
      sink.add(comp::SpanKind::kLatency, delay);
      totals_->fold(sink, delay);
    }
    co_return workload::RequestOutcome::kOk;
  }

 private:
  sim::Simulator& sim_;
  workload::SmallRng rng_;
  SpanTotals* totals_;
};

// --- per-layer counters ------------------------------------------------------

void collect_layers(core::Experiment& exp, const apps::AppDriver& driver,
                    std::uint64_t model_events, Result& r) {
  comp::Runtime& rt = exp.runtime();
  const std::uint32_t nodes = rt.topology().node_count();

  r.add("sim.events", static_cast<double>(model_events));
  r.add("net.messages", static_cast<double>(exp.network().messages_sent()));
  r.add("net.wan_messages", static_cast<double>(exp.network().wan_messages_sent()));
  r.add("net.wan_bytes", static_cast<double>(exp.network().wan_bytes_sent()));
  r.add("rmi.calls", static_cast<double>(exp.rmi().calls()));
  r.add("rmi.remote_calls", static_cast<double>(exp.rmi().remote_calls()));
  r.add("rmi.extra_round_trips", static_cast<double>(exp.rmi().extra_round_trips()));
  r.add("rmi.stub_exchanges", static_cast<double>(exp.rmi().stub_exchanges()));

  std::uint64_t statements = 0;
  for (std::uint32_t n = 0; n < nodes; ++n) statements += rt.jdbc_for(net::NodeId{n}).statements();
  r.add("db.statements", static_cast<double>(statements));

  // Caches are looked up on every node, so replicas a migration moved are
  // counted wherever they ended up.
  for (const std::string& entity : driver.meta->read_mostly) {
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const cache::ReadOnlyCache& c = rt.ro_cache(net::NodeId{n}, entity);
      r.ro_hits += c.hits();
      r.ro_lookups += c.hits() + c.misses();
    }
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const cache::QueryCache& q = rt.query_cache(net::NodeId{n});
    r.query_hits += q.hits();
    r.query_lookups += q.hits() + q.misses();
  }
  r.stub_hits += rt.stubs().hits();
  r.stub_lookups += rt.stubs().hits() + rt.stubs().misses();

  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  for (std::size_t s = 0; s < rt.update_topic_count(); ++s) {
    published += rt.update_topic(s)->published();
    delivered += rt.update_topic(s)->delivered();
  }
  r.add("msg.published", static_cast<double>(published));
  r.add("msg.delivered", static_cast<double>(delivered));

  std::uint64_t calls = 0;
  std::uint64_t writes = 0;
  for (const auto& [edge, stat] : rt.interaction_profile()) {
    calls += stat.calls;
    writes += stat.writes;
  }
  r.add("comp.calls", static_cast<double>(calls));
  r.add("comp.writes", static_cast<double>(writes));
  r.add("comp.blocking_pushes", static_cast<double>(rt.blocking_pushes()));
  r.add("placement.forwarded_calls", static_cast<double>(rt.forwarded_calls()));
  r.add("placement.migrations",
        exp.placement_controller() != nullptr
            ? static_cast<double>(exp.placement_controller()->migrations_completed())
            : 0.0);
  r.add("placement.flips",
        exp.bindings() != nullptr ? static_cast<double>(exp.bindings()->flips()) : 0.0);

  r.add("workload.requests_issued", static_cast<double>(exp.requests_issued()));
  r.add("workload.sessions_started", static_cast<double>(exp.sessions_started()));
  // Session-state bytes exist only for the FSM engine; the coroutine driver
  // of the ladders has no byte accounting.
  if (exp.fsm_peak_live_sessions() > 0) {
    r.layers["workload.bytes_per_session"] = static_cast<double>(exp.fsm_arena_bytes()) /
                                             static_cast<double>(exp.fsm_peak_live_sessions());
  }
}

/// Adds one experiment's request accounting to the result and checks the
/// conservation identity issued == samples + failures + rejections +
/// discarded + in-flight.
void account(const std::string& label, std::uint64_t issued, std::uint64_t completed,
             const stats::ResponseTimeCollector& c, Result& r) {
  const std::uint64_t in_flight = issued - completed;
  r.issued += issued;
  r.completed += completed;
  r.samples += c.total_samples();
  r.failures += c.failures();
  r.rejections += c.rejections();
  r.discarded += c.discarded_samples();
  r.in_flight += in_flight;
  const std::uint64_t rhs =
      c.total_samples() + c.failures() + c.rejections() + c.discarded_samples() + in_flight;
  r.check(label + ": conservation", issued == rhs,
          std::to_string(issued) + " issued vs " + std::to_string(rhs) + " accounted");
  for (std::uint64_t v : {issued, completed, static_cast<std::uint64_t>(c.total_samples()),
                          c.failures(), c.rejections(),
                          static_cast<std::uint64_t>(c.discarded_samples())}) {
    r.digest.add(v);
  }
}

// --- full-stack experiments --------------------------------------------------

/// A traced replay of Experiment::run(): the same load drivers, started in
/// the same order and lookahead domains, with TracingExecutor in front of
/// the experiment. Returns the traced collector's accounting.
struct TracedRun {
  stats::ResponseTimeCollector collector;
  std::unique_ptr<TracingExecutor> executor;
  std::unique_ptr<workload::LoadGenerator> loadgen;
  std::vector<std::unique_ptr<workload::SessionFsmEngine>> engines;

  [[nodiscard]] std::uint64_t issued() const {
    std::uint64_t n = loadgen ? loadgen->requests_issued() : 0;
    for (const auto& e : engines) n += e->requests_issued();
    return n;
  }
  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t n = loadgen ? loadgen->requests_completed() : 0;
    for (const auto& e : engines) n += e->requests_completed();
    return n;
  }
};

void start_traced_load(core::Experiment& exp, const apps::AppDriver& driver,
                       const core::ExperimentSpec& spec, TracedRun& t, SpanTotals& totals) {
  sim::Simulator& s = exp.simulator();
  const core::TestbedNodes& nodes = exp.nodes();
  const sim::SimTime end = sim::SimTime::origin() + spec.duration;
  t.collector.set_warmup(spec.warmup);
  t.collector.set_observer(
      [&totals](double ms) { totals.recorded_us += std::llround(ms * 1000.0); });
  t.executor = std::make_unique<TracingExecutor>(exp, sim::SimTime::origin() + spec.warmup,
                                                 spec.placement.enabled, totals);
  const double groups = static_cast<double>(1 + nodes.remote_clients.size());
  std::vector<std::pair<net::NodeId, stats::ClientGroup>> clients{
      {nodes.local_clients, stats::ClientGroup::kLocal}};
  for (net::NodeId c : nodes.remote_clients) clients.emplace_back(c, stats::ClientGroup::kRemote);

  if (!spec.fsm_load.enabled) {
    // Experiment::start_coroutine_load, closed loop.
    t.loadgen = std::make_unique<workload::LoadGenerator>(s, *t.executor, t.collector,
                                                          spec.loadgen);
    sim::RngStream root = s.rng().fork("workload");
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const std::string tag = i == 0 ? "local" : "remote-" + std::to_string(i - 1);
      workload::ClientGroupSpec g;
      g.client_node = clients[i].first;
      g.group = clients[i].second;
      g.requests_per_second = spec.total_request_rate / groups;
      g.browser_fraction = spec.browser_fraction;
      g.browser_factory = driver.browser_factory(root.fork(tag + "-browser"));
      g.writer_factory = driver.writer_factory(root.fork(tag + "-writer"));
      sim::Simulator::DomainScope in_domain(s, exp.domain_of(g.client_node));
      t.loadgen->start_group(g, end, root.fork(tag + "-clients"));
    }
    return;
  }
  // Experiment::start_fsm_load, per-group arrival envelopes only (the
  // placement workload's shape).
  const auto browser = driver.fsm_browser_model(spec.fsm_load.zipf_s);
  const auto writer = driver.fsm_writer_model(spec.fsm_load.zipf_s);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::string tag = i == 0 ? "fsm-local" : "fsm-remote-" + std::to_string(i - 1);
    sim::Simulator::DomainScope in_domain(s, exp.domain_of(clients[i].first));
    workload::SessionFsmEngine::Config cfg;
    cfg.think_time = spec.loadgen.think_time;
    cfg.between_sessions = spec.loadgen.between_sessions;
    cfg.calendar_quantum = spec.fsm_load.calendar_quantum;
    cfg.session_salt = workload::SmallRng::named_seed(spec.seed, tag + "-key");
    auto engine = std::make_unique<workload::SessionFsmEngine>(s, *t.executor, t.collector, cfg);
    const std::uint8_t b = engine->add_kind(browser, clients[i].first, clients[i].second);
    const std::uint8_t w = engine->add_kind(writer, clients[i].first, clients[i].second);
    const workload::RateEnvelope& env = spec.fsm_load.group_arrivals.at(i);
    engine->start_arrivals(b, env.scaled(spec.browser_fraction), end,
                           workload::SmallRng::named_seed(spec.seed, tag + "-browser"));
    engine->start_arrivals(w, env.scaled(1.0 - spec.browser_fraction), end,
                           workload::SmallRng::named_seed(spec.seed, tag + "-writer"));
    t.engines.push_back(std::move(engine));
  }
}


struct App {
  std::unique_ptr<apps::petstore::PetStoreApp> petstore;
  std::unique_ptr<apps::rubis::RubisApp> rubis;
  apps::AppDriver driver;
  core::HarnessCalibration cal;
};

App make_app(bool rubis) {
  App a;
  if (rubis) {
    a.rubis = std::make_unique<apps::rubis::RubisApp>();
    a.driver = a.rubis->driver();
    a.cal = core::rubis_calibration();
  } else {
    a.petstore = std::make_unique<apps::petstore::PetStoreApp>();
    a.driver = a.petstore->driver();
    a.cal = core::petstore_calibration();
  }
  return a;
}

/// Times `reps` extra constructions of `specs` (built together, then torn
/// down) and appends one set-up time per repetition.
void time_setups(const App& app, const std::vector<core::ExperimentSpec>& specs, int reps,
                 std::vector<double>& out) {
  for (int k = 0; k < reps; ++k) {
    std::vector<std::unique_ptr<core::Experiment>> built;
    const double t0 = cpu_now();
    for (const core::ExperimentSpec& spec : specs) {
      built.push_back(std::make_unique<core::Experiment>(app.driver, spec, app.cal));
    }
    out.push_back(cpu_now() - t0);
  }
}

/// Runs one experiment (plain or traced), folds its outcome into `r`, and
/// hands the collector that recorded it to `inspect` before teardown.
void run_experiment(const std::string& label, const App& app, const core::ExperimentSpec& spec,
                    bool traced, Result& r,
                    const std::function<void(const stats::ResponseTimeCollector&)>& inspect) {
  const double s0 = cpu_now();
  auto exp = std::make_unique<core::Experiment>(app.driver, spec, app.cal);
  r.setup_s.push_back(cpu_now() - s0);

  const sim::SimTime end = sim::SimTime::origin() + spec.duration;
  TracedRun t;
  if (!traced) {
    exp->set_response_observer([&r](double ms) {
      r.responses_ms.push_back(ms);
      r.digest.add(ms);
    });
  }

  SegmentClock clock(exp->simulator(), spec.duration, sim::sec(10));
  clock.start();
  if (traced) {
    // Experiment::run(), step for step: load, controller, utilization resets.
    start_traced_load(*exp, app.driver, spec, t, *r.spans);
    if (exp->placement_controller() != nullptr) exp->placement_controller()->start(end);
    net::Topology& topo = exp->runtime().topology();
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      sim::Simulator::DomainScope in_domain(exp->simulator(), exp->domain_of(net::NodeId{i}));
      exp->simulator().schedule_at(sim::SimTime::origin() + spec.warmup, [&topo, i] {
        topo.node(net::NodeId{i}).cpu->reset_utilization();
      });
    }
    exp->simulator().run_until(end);
  } else {
    exp->run();
  }
  clock.finish(r.run_s);

  if (traced) {
    account(label, t.issued(), t.completed(), t.collector, r);
    inspect(t.collector);
  } else {
    account(label, exp->requests_issued(), exp->requests_completed(), exp->results(), r);
    const std::uint64_t model_events = exp->simulator().executed_events() - clock.events();
    collect_layers(*exp, app.driver, model_events, r);
    r.digest.add(model_events);
    inspect(exp->results());
  }
  if (spec.placement.enabled) {
    const std::uint64_t migrations = exp->placement_controller()->migrations_completed();
    const std::uint64_t flips = exp->bindings()->flips();
    r.digest.add(migrations);
    r.digest.add(flips);
    for (const auto& rec : exp->placement_controller()->actions()) {
      r.digest.add(static_cast<std::uint64_t>(rec.at.count_micros()));
      r.digest.add(static_cast<std::uint64_t>(rec.action.to.value()));
      r.digest.add(static_cast<std::uint64_t>(rec.completed ? 1 : 0));
    }
    r.check(label + ": controller follows the sun", migrations >= 2 && flips >= 2,
            std::to_string(migrations) + " migrations, " + std::to_string(flips) + " flips");
  }
}

constexpr core::ConfigLevel kLadder[] = {
    core::ConfigLevel::kCentralized, core::ConfigLevel::kRemoteFacade,
    core::ConfigLevel::kStatefulComponentCaching, core::ConfigLevel::kQueryCaching,
    core::ConfigLevel::kAsyncUpdates};

/// The §4 ladder, one rung after another, plus the EXPERIMENTS.md Table 6/7
/// shape checks: centralized remote = local + ~400 ms (two WAN round trips)
/// on every page, and the asynchronous rung recovering the write page that
/// blocking push made slow (Commit Order / Store Bid / Store Comment).
void run_ladder(const Options& o, bool rubis, Result& r) {
  const App app = make_app(rubis);
  std::vector<core::ExperimentSpec> specs;
  for (core::ConfigLevel level : kLadder) {
    core::ExperimentSpec spec;
    spec.level = level;
    spec.seed = o.seed;
    spec.duration = sim::sec(o.smoke ? 120 : 3600);
    spec.warmup = sim::sec(o.smoke ? 30 : 300);
    specs.push_back(spec);
  }
  std::vector<double> setups;
  time_setups(app, specs, o.setup_reps < 0 ? 9 : o.setup_reps, setups);

  // (pattern, page) -> {local, remote} mean per rung.
  using Row = std::map<std::pair<std::string, std::string>, std::array<double, 2>>;
  std::vector<Row> table(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    run_experiment(core::to_string(specs[i].level), app, specs[i], o.traced, r,
                   [&](const stats::ResponseTimeCollector& c) {
                     for (const auto& [pattern, page] : app.driver.table_pages) {
                       const std::array<double, 2> cell{
                           c.page_mean_ms(pattern, page, stats::ClientGroup::kLocal),
                           c.page_mean_ms(pattern, page, stats::ClientGroup::kRemote)};
                       table[i][std::make_pair(pattern, page)] = cell;
                       r.digest.add(cell[0]);
                       r.digest.add(cell[1]);
                     }
                   });
  }
  // One set-up sample is the whole ladder's constructors.
  double measured_setup = 0.0;
  for (double s : r.setup_s) measured_setup += s;
  setups.push_back(measured_setup);
  r.setup_s = setups;

  int wan_pages = 0;
  std::string worst;
  for (const auto& [key, lr] : table.front()) {
    if (lr[0] < 0.0 || lr[1] < 0.0) continue;  // page never sampled in this group
    const double gap = lr[1] - lr[0];
    if (gap < 350.0 || gap > 450.0) worst += " " + key.second + "=" + std::to_string(gap);
    ++wan_pages;
  }
  r.check("centralized remote = local + ~400 ms on every page",
          wan_pages > 0 && worst.empty(),
          std::to_string(wan_pages) + " pages checked" + (worst.empty() ? "" : "; off:" + worst));

  const std::vector<std::string> write_pages =
      rubis ? std::vector<std::string>{"Store Bid", "Store Comment"}
            : std::vector<std::string>{"Commit Order"};
  const Row& blocking = table[2];  // stateful component caching: blocking push
  const Row& async = table[4];
  for (const std::string& page : write_pages) {
    const auto key = std::make_pair(app.driver.writer_pattern, page);
    const auto& b = blocking.at(key);
    const auto& a = async.at(key);
    const bool ok = a[0] >= 0.0 && a[1] >= 0.0 && b[0] - a[0] >= 200.0 && b[1] - a[1] >= 200.0;
    r.check("async updates recover " + page, ok,
            "blocking " + std::to_string(b[0]) + "/" + std::to_string(b[1]) + " ms, async " +
                std::to_string(a[0]) + "/" + std::to_string(a[1]) + " ms");
  }
}

/// The runtime-placement cell of bench_placement_runtime (`dynamic`), run
/// over several diurnal periods: Pet Store async rung, antiphase diurnal
/// FSM session arrivals on the remote sites, the replica set starting on
/// edge 0, EdgeShiftPolicy with a 25% canary.
void run_placement(const Options& o, Result& r) {
  const App app = make_app(false);
  const sim::Duration period = sim::sec(300);
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.seed = o.seed;
  spec.warmup = sim::sec(o.smoke ? 30 : 60);
  spec.duration = spec.warmup + period * (o.smoke ? 1.5 : 24.0);
  const workload::RateEnvelope day = workload::RateEnvelope::diurnal(0.05, 1.2, period);
  spec.fsm_load.enabled = true;
  spec.fsm_load.group_arrivals = {workload::RateEnvelope::constant(0.1),
                                  day.shifted(period * 0.5), day};
  const apps::AppDriver& driver = app.driver;
  spec.custom_plan = [&driver](const core::TestbedNodes& nodes) {
    comp::DeploymentPlan plan =
        core::build_plan(*driver.app, *driver.meta, nodes, core::ConfigLevel::kAsyncUpdates);
    for (const std::string& entity : driver.meta->read_mostly) {
      plan.remove_ro_replica(entity, nodes.edge_servers[1]);
    }
    plan.remove_query_cache(nodes.edge_servers[1]);
    return plan;
  };
  spec.placement.enabled = true;
  spec.placement.quantum = sim::sec(10);
  spec.placement.policy = [] {
    comp::EdgeShiftPolicy::Config cfg;
    cfg.high_share = 0.55;
    cfg.low_share = 0.45;
    cfg.confirm_quanta = 2;
    return std::make_unique<comp::EdgeShiftPolicy>(cfg);
  };
  spec.placement.canary_fraction = 0.25;
  spec.placement.components = driver.meta->edge_facades;
  spec.placement.entities = driver.meta->read_mostly;
  spec.placement.move_query_cache = true;

  std::vector<double> setups;
  time_setups(app, {spec}, o.setup_reps < 0 ? 9 : o.setup_reps, setups);
  run_experiment("placement", app, spec, o.traced, r, [](const stats::ResponseTimeCollector&) {});
  setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
  r.setup_s = setups;
}

/// Random-walk script of bench_kernel's kernel.sessions cell: 2-4 pages
/// over a 5-page site, so every session uses its rng stream and scratch.
class FleetModel final : public workload::FsmScriptModel {
 public:
  std::optional<workload::PageRequest> next(std::uint32_t step, workload::FsmScratch& scratch,
                                            workload::SmallRng& rng) const override {
    if (step == 0) scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
    if (step >= scratch.w0) return std::nullopt;
    workload::PageRequest req;
    req.page = "Page" + std::to_string(rng.uniform_int(0, 4));
    req.pattern = pattern();
    req.component = "Web";
    req.method = "serve";
    return req;
  }
  [[nodiscard]] const char* pattern() const override { return "Fleet"; }
};

/// 1M recurring FSM sessions resident at once on a bare Simulator, for two
/// think intervals, against the stub executor: the kernel and the session
/// engine alone.
void run_fleet(const Options& o, Result& r) {
  const std::size_t sessions = o.smoke ? 100000 : 1000000;
  const sim::Duration length = sim::sec(15);
  const sim::SimTime end = sim::SimTime::origin() + length;
  constexpr double kBytesPerSessionCeiling = 96.0;

  struct Fleet {
    sim::Simulator sim;
    stats::ResponseTimeCollector collector;
    StubExecutor exec;
    workload::SessionFsmEngine engine;
    Fleet(std::uint64_t seed, SpanTotals* totals)
        : sim(seed), exec(sim, seed, totals), engine(sim, exec, collector) {}
  };
  auto build = [&](SpanTotals* totals) {
    auto f = std::make_unique<Fleet>(o.seed, totals);
    const std::uint8_t kind = f->engine.add_kind(std::make_shared<FleetModel>(), net::NodeId{0},
                                                 stats::ClientGroup::kLocal);
    f->engine.start_population(kind, sessions, end,
                               workload::SmallRng::named_seed(o.seed, "perfbench-fleet"));
    return f;
  };
  const int reps = o.setup_reps < 0 ? 4 : o.setup_reps;
  for (int k = 0; k < reps; ++k) {
    const double t0 = cpu_now();
    auto f = build(nullptr);
    r.setup_s.push_back(cpu_now() - t0);
  }

  const double t0 = cpu_now();
  std::unique_ptr<Fleet> f = build(o.traced ? &*r.spans : nullptr);
  r.setup_s.push_back(cpu_now() - t0);
  const double bytes_per_session =
      static_cast<double>(f->engine.arena_bytes()) / static_cast<double>(sessions);
  if (o.traced) {
    f->collector.set_observer(
        [&r](double ms) { r.spans->recorded_us += std::llround(ms * 1000.0); });
  } else {
    f->collector.set_observer([&r](double ms) {
      r.responses_ms.push_back(ms);
      r.digest.add(ms);
    });
  }

  SegmentClock clock(f->sim, length, sim::ms(20));
  clock.start();
  f->sim.run_until(end);
  clock.finish(r.run_s);
  const std::uint64_t model_events = f->sim.executed_events() - clock.events();

  const workload::SessionFsmEngine& e = f->engine;
  account("fleet", e.requests_issued(), e.requests_completed(), f->collector, r);
  r.check("fleet fully resident", e.peak_live_sessions() == sessions,
          std::to_string(e.peak_live_sessions()) + " of " + std::to_string(sessions));
  r.check("bytes per session <= 96", bytes_per_session <= kBytesPerSessionCeiling,
          std::to_string(bytes_per_session) + " bytes");
  r.check("every session issues twice", e.requests_issued() >= 2 * sessions,
          std::to_string(e.requests_issued()) + " requests");
  r.add("sim.events", static_cast<double>(model_events));
  r.add("workload.requests_issued", static_cast<double>(e.requests_issued()));
  r.add("workload.sessions_started", static_cast<double>(e.sessions_started()));
  r.add("workload.bytes_per_session", bytes_per_session);
  r.digest.add(model_events);
  r.digest.add(static_cast<std::uint64_t>(e.sessions_started()));
}

// --- output --------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_json(const Options& o, const Result& r) {
  std::ostringstream os;
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed << ", \"mode\": \""
     << (o.traced ? "traced" : "plain") << "\"";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(r.digest.h));
  os << ", \"digest\": \"" << hex << "\"";
  os << ", \"run_s\": [";
  for (std::size_t i = 0; i < r.run_s.size(); ++i) os << (i ? ", " : "") << num(r.run_s[i]);
  os << "]";
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  os << ", \"cpu_total_s\": " << num(cpu_now()) << ", \"peak_rss_kb\": " << self.ru_maxrss;
  os << ", \"setup_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) os << (i ? ", " : "") << num(r.setup_s[i]);
  os << "]";
  os << ", \"issued\": " << r.issued << ", \"completed\": " << r.completed
     << ", \"samples\": " << r.samples << ", \"failures\": " << r.failures
     << ", \"rejections\": " << r.rejections << ", \"discarded\": " << r.discarded
     << ", \"in_flight\": " << r.in_flight;

  // Response-time summary over every post-warm-up sample.
  std::vector<double> sorted = r.responses_ms;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  std::uint64_t within_slo = 0;
  for (double ms : sorted) {
    sum += ms;
    if (ms <= 250.0) ++within_slo;
  }
  // The nearest-rank p99 often sits on an atom of the distribution (a page
  // whose simulated path is deterministic), so it reads the same for every
  // seed; the mean of the samples at or above it moves with the tail.
  const std::size_t n = sorted.size();
  const std::size_t rank = n == 0 ? 0 : static_cast<std::size_t>(std::ceil(0.99 * n)) - 1;
  double tail_sum = 0.0;
  for (std::size_t i = rank; i < n; ++i) tail_sum += sorted[i];
  os << ", \"response_ms_mean\": " << num(n ? sum / n : 0.0)
     << ", \"response_ms_p99\": " << num(n ? sorted[rank] : 0.0)
     << ", \"response_ms_top1pct_mean\": " << num(n ? tail_sum / (n - rank) : 0.0)
     << ", \"slo_frac\": " << num(n ? static_cast<double>(within_slo) / n : 0.0)
     << ", \"response_samples\": " << n;

  std::map<std::string, double> layers = r.layers;
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  if (!o.traced) {
    layers["cache.ro_hit_ratio"] = ratio(r.ro_hits, r.ro_lookups);
    layers["cache.ro_lookups"] = static_cast<double>(r.ro_lookups);
    layers["cache.query_hit_ratio"] = ratio(r.query_hits, r.query_lookups);
    layers["cache.query_lookups"] = static_cast<double>(r.query_lookups);
    layers["comp.stub_hit_ratio"] = ratio(r.stub_hits, r.stub_lookups);
    layers["comp.stub_lookups"] = static_cast<double>(r.stub_lookups);
  }
  os << ", \"layers\": {";
  bool first = true;
  for (const auto& [k, v] : layers) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << num(v);
    first = false;
  }
  os << "}";

  if (r.spans) {
    const SpanTotals& s = *r.spans;
    std::int64_t span_sum = 0;
    os << ", \"spans_us\": {";
    for (std::size_t k = 0; k < s.us.size(); ++k) {
      span_sum += s.us[k];
      os << (k ? ", " : "") << "\"" << stats::to_string(static_cast<comp::SpanKind>(k))
         << "\": " << s.us[k];
    }
    os << "}, \"span_sum_us\": " << span_sum << ", \"elapsed_us\": " << s.elapsed_us
       << ", \"recorded_us\": " << s.recorded_us << ", \"traced_requests\": " << s.requests
       << ", \"nonconforming\": " << s.nonconforming;
  }

  os << ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json_escape(c.name)
       << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
       << json_escape(c.detail) << "\"}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

int run(const Options& o) {
  Result r;
  if (o.traced) r.spans.emplace();
  if (o.workload == "petstore_ladder") {
    run_ladder(o, false, r);
  } else if (o.workload == "rubis_ladder") {
    run_ladder(o, true, r);
  } else if (o.workload == "fleet_1m") {
    run_fleet(o, r);
  } else if (o.workload == "placement_diurnal") {
    run_placement(o, r);
  } else {
    std::cerr << "perfbench_workload: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  if (r.spans) {
    const SpanTotals& s = *r.spans;
    std::int64_t span_sum = 0;
    for (std::int64_t v : s.us) span_sum += v;
    // Run-scale conformance: the folded requests are exactly the recorded
    // samples, their response times sum to the collector's to the
    // microsecond, and spans + the unattributed remainder (time no SpanKind
    // claims, reported as span.untraced_ms) == response times. A request
    // whose spans exceed its response time would be double counting.
    r.check("run-scale span conformance (integer us)",
            s.requests == r.samples && s.elapsed_us == s.recorded_us && s.overcounted == 0 &&
                s.open_spans == 0 && span_sum <= s.elapsed_us,
            "spans " + std::to_string(span_sum) + " + untraced " +
                std::to_string(s.elapsed_us - span_sum) + " = " + std::to_string(s.elapsed_us) +
                " us; recorded " + std::to_string(s.recorded_us) + " us over " +
                std::to_string(s.requests) + " requests (" + std::to_string(r.samples) +
                " samples); " + std::to_string(s.nonconforming) + " requests not fully attributed");
  }
  print_json(o, r);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--mode" && has_value) {
      const std::string m = argv[++i];
      if (m != "plain" && m != "traced") {
        std::cerr << "perfbench_workload: --mode must be plain or traced\n";
        return 2;
      }
      o.traced = m == "traced";
    } else if (a == "--length" && has_value) {
      o.smoke = std::string(argv[++i]) == "smoke";
    } else if (a == "--setup-reps" && has_value) {
      o.setup_reps = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: perfbench_workload --workload <name> --seed <n> [--mode plain|traced]"
                   " [--length full|smoke] [--setup-reps <k>]\n";
      return 2;
    }
  }
  if (o.workload.empty()) {
    std::cerr << "perfbench_workload: --workload is required\n";
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 1;
  }
}
