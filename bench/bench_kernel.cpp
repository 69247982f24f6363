// Wall-clock microbenchmark of the simulation kernel and the DB hot path.
//
// Establishes the repo's perf trajectory: results land in BENCH_kernel.json
// (override with MUTSVC_BENCH_JSON) and CI's perf-smoke job fails on a >25%
// events/sec regression against the checked-in baseline via tools/benchstat.
//
// Workloads:
//  - kernel.coroutine_timer: the event-loop hot path — many coroutines
//    sleeping on Simulator::wait, i.e. millions of schedule/heap/resume
//    cycles. This is the workload the EventFn small-buffer callable and the
//    POD-heap/slab event queue were built for.
//  - kernel.spilled_events: same loop but with captures larger than the
//    EventFn inline buffer, exercising the spill path.
//  - db.indexed_finder: Table::find_equal + for_each_equal probes against a
//    secondary index (transparent Value comparator, no key materialization).
//  - experiment.response_hist: a short metrics-enabled Pet Store run whose
//    response-time histogram is exported as `hist_*` metrics — these are
//    simulated counts, so benchstat holds them bit-identical across runs
//    and MUTSVC_JOBS values (wall-clock load on the host cannot move them).
//    The run also counts global `operator new` calls per completed page
//    and aborts above a ceiling. The count is printed, not recorded: it
//    depends on the standard-library build, which benchstat's exact match
//    on deterministic metrics cannot allow for.
//  - kernel.sessions: one million concurrent sessions held as 40-byte FSM
//    records in the SessionFsmEngine arena (DESIGN §16) against a local
//    fixed-latency executor. Aborts if memory-per-session leaves its budget
//    or the fleet fails to become fully resident; `sessions`, `requests`,
//    `events`, and the byte metrics are simulated/deterministic while
//    `wall_sessions_per_core` tracks host throughput.
//
// MUTSVC_FAST=1 shrinks everything to a CI smoke run.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "db/table.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "stats/collector.hpp"
#include "tools/perf/perfjson.hpp"
#include "workload/arrivals.hpp"
#include "workload/loadgen.hpp"
#include "workload/session_fsm.hpp"

using namespace mutsvc;

namespace {

/// Global `operator new` calls so far (the bench is single-threaded).
std::uint64_t g_allocations = 0;

}  // namespace

// Out of line, so GCC never sees `malloc` meet `operator delete` or `new`
// meet `free` and warn (-Wmismatched-new-delete): the pair is matched.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

bool fast_mode() { return std::getenv("MUTSVC_FAST") != nullptr; }

[[nodiscard]] sim::Task<void> ticker(sim::Simulator& s, int id) {
  const sim::Duration period = sim::us(50 + id % 97);
  for (;;) co_await s.wait(period);
}

perf::Benchmark bench_coroutine_timer() {
  const int tasks = 512;
  const double sim_seconds = fast_mode() ? 0.1 : 1.0;
  sim::Simulator s(1);
  for (int i = 0; i < tasks; ++i) s.spawn(ticker(s, i));
  perf::WallTimer timer;
  s.run_until(sim::SimTime::origin() + sim::sec(sim_seconds));
  const double wall = timer.seconds();
  const auto events = static_cast<double>(s.executed_events());
  perf::Benchmark b{"kernel.coroutine_timer", {}};
  b.add("events", events);
  b.add("wall_seconds", wall);
  b.add("wall_events_per_sec", wall > 0.0 ? events / wall : 0.0);
  return b;
}

perf::Benchmark bench_spilled_events() {
  // Captures of 64 bytes force the EventFn spill path on every event.
  struct Fat {
    std::uint64_t pad[8];
  };
  const double sim_seconds = fast_mode() ? 0.05 : 0.5;
  sim::Simulator s(1);
  std::uint64_t acc = 0;
  // Self-rescheduling chain of 64 spilled events per tick.
  for (int i = 0; i < 64; ++i) {
    struct Chain {
      sim::Simulator* s;
      std::uint64_t* acc;
      Fat payload;
      void operator()() const {
        *acc += payload.pad[0];
        s->schedule_after(sim::us(20), Chain{s, acc, payload});
      }
    };
    s.schedule_after(sim::us(i), Chain{&s, &acc, Fat{{static_cast<std::uint64_t>(i)}}});
  }
  perf::WallTimer timer;
  s.run_until(sim::SimTime::origin() + sim::sec(sim_seconds));
  const double wall = timer.seconds();
  const auto events = static_cast<double>(s.executed_events());
  perf::Benchmark b{"kernel.spilled_events", {}};
  b.add("events", events);
  b.add("wall_seconds", wall);
  b.add("wall_events_per_sec", wall > 0.0 ? events / wall : 0.0);
  return b;
}

perf::Benchmark bench_indexed_finder() {
  const std::int64_t rows = fast_mode() ? 5000 : 20000;
  const std::int64_t groups = 100;
  const std::int64_t probes = fast_mode() ? 40000 : 400000;

  db::Table t("items", {{"id", db::ColumnType::kInt},
                        {"g", db::ColumnType::kInt},
                        {"name", db::ColumnType::kText}});
  t.create_index("g");
  for (std::int64_t i = 1; i <= rows; ++i) {
    t.insert(db::Row{i, i % groups, "item-" + std::to_string(i)});
  }

  std::uint64_t matched = 0;
  perf::WallTimer timer;
  for (std::int64_t p = 0; p < probes; ++p) {
    const db::Value key = p % groups;
    if ((p & 1) == 0) {
      t.for_each_equal("g", key, [&](const db::RowRef& r) { matched += r->size(); });
    } else {
      matched += t.find_equal("g", key).size();
    }
  }
  const double wall = timer.seconds();
  perf::Benchmark b{"db.indexed_finder", {}};
  b.add("probes", static_cast<double>(probes));
  b.add("matched", static_cast<double>(matched));
  b.add("wall_seconds", wall);
  b.add("wall_ops_per_sec", wall > 0.0 ? static_cast<double>(probes) / wall : 0.0);
  return b;
}

perf::Benchmark bench_response_hist() {
  // About 10% over the measured 6.1 (MUTSVC_FAST: 21,691 over 3,582
  // pages) and 5.3 (full length: 47,180 over 8,855 pages) allocations per
  // page, with every coroutine frame served from the per-thread frame pool
  // (sim/frame_pool.hpp), every read sharing its row versions
  // (db::RowRef) and the HTTP edge's handler inside std::function's small
  // buffer. A frame that bypasses the pool breaks it (heap frames read 39.3
  // per page under MUTSVC_FAST), and so would per-read row copies: with
  // them and a heap-allocated mutex per lock it read 11.4. A handler that
  // outgrows the buffer costs one more call per page (7.1).
  constexpr double kAllocationsPerPageCeiling = 6.7;

  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kStatefulComponentCaching;
  spec.duration = sim::sec(fast_mode() ? 120 : 300);
  spec.warmup = sim::sec(30);
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.enable_metrics(sim::sec(10));
  perf::WallTimer timer;
  const std::uint64_t allocations_before = g_allocations;
  exp.run();
  const std::uint64_t allocations = g_allocations - allocations_before;
  const double wall = timer.seconds();

  const auto pages = static_cast<double>(exp.requests_completed());
  const double allocations_per_page = static_cast<double>(allocations) / pages;
  std::printf("experiment.response_hist: %llu allocations over %.0f pages, %.1f per page "
              "(ceiling %.1f)\n",
              static_cast<unsigned long long>(allocations), pages, allocations_per_page,
              kAllocationsPerPageCeiling);
  if (allocations_per_page > kAllocationsPerPageCeiling) {
    std::cerr << "bench_kernel: experiment.response_hist makes " << allocations_per_page
              << " allocations per page, above the " << kAllocationsPerPageCeiling
              << " ceiling\n";
    std::exit(1);
  }

  perf::Benchmark b{"experiment.response_hist", {}};
  b.add("samples", static_cast<double>(exp.results().total_samples()));
  stats::MetricsRegistry& main = exp.metrics(exp.nodes().main_server);
  perf::add_histogram(b, "response_ms", main.histogram("response_ms"));
  b.add("wall_seconds", wall);
  return b;
}

/// The service stub for kernel.sessions: a constant-latency responder, so
/// the bench isolates the engine + kernel and the request count stays a
/// pure function of the timing contract.
class FixedLatencyExecutor final : public workload::RequestExecutor {
 public:
  FixedLatencyExecutor(sim::Simulator& sim, sim::Duration latency)
      : sim_(sim), latency_(latency) {}
  [[nodiscard]] sim::Task<workload::RequestOutcome> execute(net::NodeId,
                                                            const workload::PageRequest&) override {
    co_await sim_.wait(latency_);
    co_return workload::RequestOutcome::kOk;
  }

 private:
  sim::Simulator& sim_;
  sim::Duration latency_;
};

/// Random-walk script (2–4 pages over a 5-page site) so every session
/// exercises the per-record rng stream and scratch words, not a fixed loop.
class SessionsBenchModel final : public workload::FsmScriptModel {
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
  [[nodiscard]] const char* pattern() const override { return "Bench"; }
};

perf::Benchmark bench_sessions() {
  // The million-session acceptance cell (ISSUE 9): the whole fleet resident
  // at once as recurring closed-loop sessions, default 7s think / 100ms
  // calendar quantum, run for two think intervals so every session issues
  // at least twice.
  const std::size_t sessions = fast_mode() ? 100000 : 1000000;
  const double sim_seconds = 15.0;
  constexpr double kBytesPerSessionCeiling = 96.0;

  sim::Simulator s(1);
  stats::ResponseTimeCollector collector;
  FixedLatencyExecutor exec{s, sim::ms(5)};
  workload::SessionFsmEngine engine{s, exec, collector};
  const std::uint8_t kind = engine.add_kind(std::make_shared<SessionsBenchModel>(),
                                            net::NodeId{0}, stats::ClientGroup::kLocal);
  const sim::SimTime end = sim::SimTime::origin() + sim::sec(sim_seconds);
  perf::WallTimer timer;
  engine.start_population(kind, sessions, end, /*seed=*/2026);
  const double resident_bytes_per_session =
      static_cast<double>(engine.arena_bytes()) / static_cast<double>(sessions);
  s.run_until(end);
  const double wall = timer.seconds();

  if (engine.peak_live_sessions() != sessions) {
    std::cerr << "bench_kernel: kernel.sessions fleet never fully resident ("
              << engine.peak_live_sessions() << " of " << sessions << ")\n";
    std::exit(1);
  }
  if (resident_bytes_per_session > kBytesPerSessionCeiling) {
    std::cerr << "bench_kernel: kernel.sessions memory-per-session "
              << resident_bytes_per_session << " bytes exceeds the " << kBytesPerSessionCeiling
              << "-byte ceiling\n";
    std::exit(1);
  }
  if (engine.requests_issued() < 2 * sessions ||
      engine.requests_issued() != engine.requests_completed() + engine.requests_in_flight()) {
    std::cerr << "bench_kernel: kernel.sessions accounting broke (issued "
              << engine.requests_issued() << ", completed " << engine.requests_completed()
              << ", in flight " << engine.requests_in_flight() << ")\n";
    std::exit(1);
  }

  const auto events = static_cast<double>(s.executed_events());
  const unsigned cores = std::thread::hardware_concurrency();  // simlint:allow(sim-shared-across-threads)
  perf::Benchmark b{"kernel.sessions", {}};
  b.add("sessions", static_cast<double>(sessions));
  b.add("requests", static_cast<double>(engine.requests_issued()));
  b.add("samples", static_cast<double>(collector.total_samples()));
  b.add("events", events);
  b.add("record_bytes", static_cast<double>(workload::SessionFsmEngine::record_bytes()));
  b.add("bytes_per_session", resident_bytes_per_session);
  b.add("wall_seconds", wall);
  b.add("wall_events_per_sec", wall > 0.0 ? events / wall : 0.0);
  b.add("wall_sessions_per_core",
        cores > 0 ? static_cast<double>(sessions) / static_cast<double>(cores) : 0.0);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = perf::bench_json_path_or("BENCH_kernel.json");
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) out_path = argv[++i];
  }

  std::cout << "=== bench_kernel: sim-kernel + DB hot-path wall-clock microbench ===\n"
            << (fast_mode() ? "(MUTSVC_FAST smoke run)\n" : "") << "\n";

  std::vector<perf::Benchmark> results;
  results.push_back(bench_coroutine_timer());
  results.push_back(bench_spilled_events());
  results.push_back(bench_indexed_finder());
  results.push_back(bench_response_hist());
  results.push_back(bench_sessions());

  perf::Benchmark host{"host", {}};
  host.add("wall_peak_rss_bytes", static_cast<double>(perf::peak_rss_bytes()));
  results.push_back(host);

  for (const auto& b : results) {
    std::cout << b.name << "\n";
    for (const auto& m : b.metrics) {
      std::printf("  %-28s %s\n", m.name.c_str(), perf::format_number(m.value).c_str());
    }
  }

  perf::write_bench_json(out_path, "bench_kernel", results);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
