// Flash-crowd overload bench: open-loop Poisson session arrivals (the FSM
// engine's arrival layer) swept from 1x to 10x the calibrated capacity,
// with overload protection (per-entry-node admission control) off and on.
// Self-checking:
//   - protected: goodput at 10x stays within 90% of the protected 1x cell,
//     and admitted-page p99 stays bounded (the service keeps its SLO by
//     shedding at the door instead of collapsing in the queues);
//   - unprotected: goodput at 10x collapses below half the 1x cell
//     (congestion collapse — the failure mode the protection exists for);
//   - determinism: a repeated protected 10x cell produces a bit-identical
//     digest (same samples, counters, and event count).
// Cells are independent (spec, seed) trials fanned out across the
// core::sweep worker pool; results merge in submission order, so stdout
// and the JSON are bit-identical at any MUTSVC_JOBS value. With
// MUTSVC_BENCH_JSON set, writes per-cell metrics (BENCH_flash_crowd.json);
// every non-wall metric is deterministic.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "bench/table_common.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "tools/perf/perfjson.hpp"
#include "workload/arrivals.hpp"

namespace {

using mutsvc::core::ConfigLevel;
using mutsvc::core::Experiment;
using mutsvc::core::ExperimentSpec;

// 1x is the planned operating point. The paper's testbed was provisioned so
// thread pools were never the bottleneck (24 threads/node); a flash crowd is
// exactly the regime where that stops being true, so the sweep models a
// modestly-provisioned deployment (kThreadsPerNode below) whose per-node
// capacity is ~85 req/s — 10x offered load is >2x past capacity, and the
// unprotected open-loop backlog grows without bound.
constexpr double kBaseRate = 60.0;     // planned load, req/s (3 client groups)
// Mean pages per session under the 80/20 mix: 20-page browsers (Table 2)
// and 9-page buyers (Table 3). Sessions arrive at page rate / this.
constexpr double kPagesPerSession = 0.8 * 20 + 0.2 * 9;
constexpr double kSloMs = 2000.0;      // a page slower than this is not goodput
constexpr double kAdmitPerEntry = 20.0;  // protected intake = the 1x per-entry share
constexpr std::size_t kThreadsPerNode = 6;

struct Cell {
  std::string name;
  double multiplier = 1.0;
  bool flow = false;
};

struct CellResult {
  Cell cell;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_admission = 0;
  std::uint64_t events = 0;
  std::uint64_t good = 0;      // samples within the SLO
  double goodput_per_sec = 0;  // good / measured window
  double p99_ms = 0;
  double wall_seconds = 0;
  std::uint64_t digest = 0;  // FNV-1a over the deterministic outcome
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

CellResult run_cell(const Cell& cell, const ExperimentSpec& base) {
  mutsvc::apps::petstore::PetStoreApp app;
  ExperimentSpec spec = base;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.fsm_load.enabled = true;
  spec.fsm_load.arrivals =
      mutsvc::workload::RateEnvelope::constant(kBaseRate * cell.multiplier / kPagesPerSession);
  spec.seed = 0xF1A5 + static_cast<std::uint64_t>(cell.multiplier * 10.0);
  if (cell.flow) {
    spec.flow.admission_rate = kAdmitPerEntry;
    spec.flow.admission_burst = 20.0;
  }

  mutsvc::core::HarnessCalibration cal = mutsvc::core::petstore_calibration();
  cal.container_threads = kThreadsPerNode;

  mutsvc::perf::WallTimer timer;
  Experiment exp{app.driver(), spec, cal};
  std::vector<double> responses_ms;
  exp.set_response_observer([&responses_ms](double ms) { responses_ms.push_back(ms); });
  exp.run();

  CellResult r;
  r.cell = cell;
  r.wall_seconds = timer.seconds();
  const auto& res = exp.results();
  r.samples = res.total_samples();
  r.failures = res.failures();
  r.rejections = res.rejections();
  r.admitted = exp.requests_admitted();
  r.rejected_admission = exp.rejected_admission();
  r.events = exp.simulator().executed_events();
  for (double ms : responses_ms) {
    if (ms <= kSloMs) ++r.good;
  }
  const double window = (spec.duration - spec.warmup).as_seconds();
  r.goodput_per_sec = window > 0.0 ? static_cast<double>(r.good) / window : 0.0;
  if (!responses_ms.empty()) {
    std::sort(responses_ms.begin(), responses_ms.end());
    const auto rank = static_cast<std::size_t>(0.99 * static_cast<double>(responses_ms.size()));
    r.p99_ms = responses_ms[std::min(rank, responses_ms.size() - 1)];
  }
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.samples);
  h = fnv1a(h, r.failures);
  h = fnv1a(h, r.rejections);
  h = fnv1a(h, r.admitted);
  h = fnv1a(h, r.rejected_admission);
  h = fnv1a(h, r.events);
  for (double ms : responses_ms) {
    h = fnv1a(h, static_cast<std::uint64_t>(ms * 1000.0));
  }
  r.digest = h;
  return r;
}

}  // namespace

int main() {
  using mutsvc::bench::base_spec;
  ExperimentSpec base = base_spec();
  // The paper-scale hour is overkill for a sweep with a 10x open-loop cell;
  // 600s (120s under MUTSVC_FAST via base_spec) is plenty to separate the
  // protected plateau from the collapse.
  if (std::getenv("MUTSVC_FAST") == nullptr) {
    base.duration = mutsvc::sim::sec(600);
    base.warmup = mutsvc::sim::sec(60);
  }

  std::vector<Cell> cells;
  for (double m : {1.0, 2.0, 4.0, 10.0}) {
    cells.push_back({"off" + std::to_string(static_cast<int>(m)) + "x", m, false});
    cells.push_back({"on" + std::to_string(static_cast<int>(m)) + "x", m, true});
  }
  cells.push_back({"on10x_repeat", 10.0, true});  // determinism probe

  std::vector<std::function<CellResult()>> trials;
  trials.reserve(cells.size());
  for (const Cell& c : cells) {
    trials.push_back([c, &base] { return run_cell(c, base); });
  }
  std::cerr << "flash-crowd sweep: " << trials.size() << " cells, jobs="
            << mutsvc::core::sweep::configured_jobs() << std::endl;
  std::vector<CellResult> results = mutsvc::core::sweep::run_trials(std::move(trials));

  auto find = [&results](const std::string& name) -> const CellResult& {
    for (const CellResult& r : results) {
      if (r.cell.name == name) return r;
    }
    throw std::logic_error("missing cell " + name);
  };

  std::cout << "Flash crowd (PetStore async rung, Poisson session arrivals, SLO " << kSloMs
            << "ms):\n";
  for (const CellResult& r : results) {
    std::cout << "  " << r.cell.name << ": offered " << kBaseRate * r.cell.multiplier
              << "/s goodput " << r.goodput_per_sec << "/s p99 " << r.p99_ms << "ms samples "
              << r.samples << " rejected " << r.rejected_admission << " failures " << r.failures
              << " [" << r.wall_seconds << "s wall]\n";
  }

  int rc = 0;
  auto check = [&rc](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "FAIL: " << what << "\n";
      rc = 1;
    } else {
      std::cout << "ok: " << what << "\n";
    }
  };

  const CellResult& on1 = find("on1x");
  const CellResult& on10 = find("on10x");
  const CellResult& off1 = find("off1x");
  const CellResult& off10 = find("off10x");
  check(on10.goodput_per_sec >= 0.9 * on1.goodput_per_sec,
        "protected goodput at 10x within 90% of the protected 1x cell (" +
            std::to_string(on10.goodput_per_sec) + " vs " + std::to_string(on1.goodput_per_sec) +
            ")");
  check(on10.p99_ms > 0.0 && on10.p99_ms <= kSloMs,
        "protected admitted p99 stays bounded at 10x (" + std::to_string(on10.p99_ms) + "ms)");
  check(on10.rejected_admission > 0, "admission sheds at 10x");
  check(off10.goodput_per_sec < 0.5 * off1.goodput_per_sec,
        "unprotected goodput collapses at 10x (" + std::to_string(off10.goodput_per_sec) +
            " vs " + std::to_string(off1.goodput_per_sec) + ")");
  check(find("on10x_repeat").digest == on10.digest,
        "repeated protected 10x cell is bit-identical (determinism)");

  const char* path = std::getenv("MUTSVC_BENCH_JSON");
  if (path != nullptr && *path != '\0') {
    std::vector<mutsvc::perf::Benchmark> out;
    for (const CellResult& r : results) {
      mutsvc::perf::Benchmark b{"flash." + r.cell.name, {}};
      b.add("events", static_cast<double>(r.events));
      b.add("samples", static_cast<double>(r.samples));
      b.add("rejected", static_cast<double>(r.rejected_admission));
      b.add("failures", static_cast<double>(r.failures));
      b.add("good_samples", static_cast<double>(r.good));
      b.add("p99_ms", r.p99_ms);
      b.add("wall_seconds", r.wall_seconds);
      out.push_back(std::move(b));
    }
    mutsvc::perf::write_bench_json(path, "flash_crowd", out);
    std::cerr << "wrote " << path << "\n";
  }
  return rc;
}
