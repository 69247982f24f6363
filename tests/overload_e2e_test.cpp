// End-to-end overload-protection battery: per-entry-node admission control
// wired through the full experiment harness. Asserts the conservation
// identities
//   pages_started == requests_admitted + rejected_admission
//   issued == samples + failures + rejections + discarded + in_flight
// and per update topic expected == delivered + pending, across the config
// ladder with and without message loss; that admission-controlled runs are
// deterministic; and that a malformed admission config is refused when the
// experiment is built.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"

namespace mutsvc {
namespace {

using core::ConfigLevel;
using core::Experiment;
using core::ExperimentSpec;

// Open-loop load is Poisson session arrivals (the FSM engine's arrival
// layer) at a page-rate equivalent: page rate / mean pages per session.
// Pet Store's 80/20 mix averages 0.8*20 + 0.2*9 pages, RUBiS's 0.8*40 + 0.2*7.
constexpr double kPetStorePagesPerSession = 0.8 * 20 + 0.2 * 9;
constexpr double kRubisPagesPerSession = 0.8 * 40 + 0.2 * 7;

void open_loop(ExperimentSpec& spec, double pages_per_sec, double pages_per_session) {
  spec.fsm_load.enabled = true;
  spec.fsm_load.arrivals = workload::RateEnvelope::constant(pages_per_sec / pages_per_session);
}

void assert_conservation(Experiment& exp, const std::string& tag) {
  const auto& r = exp.results();
  EXPECT_EQ(exp.pages_started(), exp.requests_admitted() + exp.rejected_admission()) << tag;
  // End-of-run rule: requests count at issue time, and a truncated run
  // leaves the tail permanently in flight — every issued request is either
  // recorded (sample/failure/rejection/warm-up discard) or still in flight.
  EXPECT_EQ(exp.requests_issued(), r.total_samples() + r.failures() + r.rejections() +
                                       r.discarded_samples() + exp.requests_in_flight())
      << tag << ": issued=" << exp.requests_issued() << " samples=" << r.total_samples()
      << " failures=" << r.failures() << " rejections=" << r.rejections()
      << " discarded=" << r.discarded_samples()
      << " in_flight=" << exp.requests_in_flight();
  // Drivers count issued the instant they hand the page to execute(), and
  // execute() counts admitted/rejected before its first suspension.
  EXPECT_EQ(exp.requests_issued(), exp.pages_started()) << tag;
}

// --- Admission control -------------------------------------------------------

TEST(AdmissionTest, TokenBucketRejectsExcessLoadExactly) {
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(20);
  open_loop(spec, 30.0, kPetStorePagesPerSession);  // 10/s per entry node
  spec.flow.admission_rate = 4.0;  // well under the offered 10/s per entry
  spec.flow.admission_burst = 5.0;
  Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();

  EXPECT_GT(exp.rejected_admission(), 0u);
  EXPECT_GT(exp.requests_admitted(), 0u);
  EXPECT_GT(exp.results().rejections(), 0u) << "rejections must reach the collector";
  assert_conservation(exp, "admission");
  // The bucket cannot admit more than rate * duration + burst per entry
  // node (3 entry nodes).
  const double cap = 3.0 * (4.0 * spec.duration.as_seconds() + 5.0);
  EXPECT_LE(static_cast<double>(exp.requests_admitted()), cap);
}

TEST(AdmissionTest, UnderOfferedLoadNothingIsRejected) {
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.duration = sim::sec(90);
  spec.warmup = sim::sec(15);
  spec.total_request_rate = 12.0;  // 4/s per entry node
  spec.flow.admission_rate = 50.0;  // far above the offer
  Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();
  EXPECT_EQ(exp.rejected_admission(), 0u);
  EXPECT_EQ(exp.results().rejections(), 0u);
  assert_conservation(exp, "under-load");
}

// The std::invalid_argument message building an experiment from `flow`
// throws, or "" when it builds. Nothing is run: the token buckets are built
// lazily inside the first page's coroutine, where a malformed config would
// abort the process instead of throwing to the caller.
std::string refusal(const net::FlowControlConfig& flow) {
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.flow = flow;
  try {
    Experiment exp{app.driver(), spec, core::petstore_calibration()};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(AdmissionTest, MalformedConfigIsRefusedAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The message names both fields and says which rule the pair breaks.
  auto expect_refused = [](net::FlowControlConfig flow, const std::string& rule) {
    const std::string why = refusal(flow);
    EXPECT_NE(why.find("flow.admission_rate"), std::string::npos) << why;
    EXPECT_NE(why.find("flow.admission_burst"), std::string::npos) << why;
    EXPECT_NE(why.find(rule), std::string::npos)
        << "rate " << flow.admission_rate << ", burst " << flow.admission_burst << ": " << why;
  };
  for (double rate : {-1.0, nan, inf}) {
    expect_refused({.admission_rate = rate, .admission_burst = 10.0}, "rate must be");
  }
  for (double burst : {0.5, 0.0, -3.0, nan, inf}) {
    expect_refused({.admission_rate = 4.0, .admission_burst = burst}, "burst must be");
  }
  // Finite pairs whose microsecond increment or tolerance overflows int64.
  expect_refused({.admission_rate = 1e-13, .admission_burst = 1.0}, "fit the microsecond clock");
  expect_refused({.admission_rate = 10.0, .admission_burst = 1e15}, "fit the microsecond clock");
  // Well-formed configs build: a burst of exactly 1, and any burst while a
  // zero rate leaves admission off.
  EXPECT_EQ(refusal({.admission_rate = 4.0, .admission_burst = 1.0}), "");
  EXPECT_EQ(refusal({.admission_rate = 0.0, .admission_burst = 0.5}), "");
}

// --- Determinism -------------------------------------------------------------

struct RunDigest {
  std::uint64_t issued, samples, failures, rejections, discarded, dropped;
  double local_mean, remote_mean;
  bool operator==(const RunDigest&) const = default;
};

RunDigest run_digest(const ExperimentSpec& spec) {
  apps::petstore::PetStoreApp app;
  Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();
  const auto& r = exp.results();
  return RunDigest{exp.requests_issued(),
                   r.total_samples(),
                   r.failures(),
                   r.rejections(),
                   r.discarded_samples(),
                   exp.dropped_requests(),
                   r.pattern_mean_ms("Browser", stats::ClientGroup::kLocal),
                   r.pattern_mean_ms("Browser", stats::ClientGroup::kRemote)};
}

TEST(ZeroDiffTest, FlowEnabledRunIsDeterministic) {
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(100);
  spec.warmup = sim::sec(20);
  spec.seed = 99;
  open_loop(spec, 45.0, kPetStorePagesPerSession);
  spec.flow.admission_rate = 8.0;
  const RunDigest a = run_digest(spec);
  const RunDigest b = run_digest(spec);
  EXPECT_TRUE(a == b) << "same spec, same seed -> bit-identical results";
}

// --- Admission × faults across the ladder ------------------------------------

struct OverloadCase {
  const char* name;
  ConfigLevel level;
  double loss_prob;  // stochastic message loss (the fault injector)
};

const OverloadCase kCases[] = {
    {"facade", ConfigLevel::kRemoteFacade, 0.0},
    {"async", ConfigLevel::kAsyncUpdates, 0.0},
    {"async_lossy", ConfigLevel::kAsyncUpdates, 0.01},
};

// gtest would otherwise print the struct as a byte dump of its pointers,
// which address-space randomization changes on every run; the dump lands
// in the ctest test names, so they would differ from build to build.
void PrintTo(const OverloadCase& c, std::ostream* os) { *os << c.name; }

class OverloadLadder : public ::testing::TestWithParam<OverloadCase> {};

TEST_P(OverloadLadder, ConservationHoldsUnderPressureAndFaults) {
  const OverloadCase& c = GetParam();
  apps::rubis::RubisApp app;  // heavier write mix stresses the update path
  ExperimentSpec spec;
  spec.level = c.level;
  // A 40-page browser session lasts 280s, so the session-level ramp needs
  // most of the run to lift the page rate past admission's 12/s per entry.
  spec.duration = sim::sec(400);
  spec.warmup = sim::sec(20);
  spec.seed = 4242;
  open_loop(spec, 60.0, kRubisPagesPerSession);  // ~2x the calibrated capacity
  spec.flow.admission_rate = 12.0;
  if (c.loss_prob > 0.0) {
    spec.fault_plan.loss_prob = c.loss_prob;
    spec.resilience.enabled = true;
    spec.resilience.http_retries = 2;
  }
  Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();

  assert_conservation(exp, c.name);
  EXPECT_GT(exp.rejected_admission(), 0u) << c.name << ": 2x overload must trip admission";

  // Per-topic conservation: every accepted message is addressed to every
  // subscriber, and every fan-out copy is delivered or still pending at the
  // cut-off.
  comp::Runtime& rt = exp.runtime();
  std::uint64_t expected = 0, delivered = 0, pending = 0;
  for (std::size_t s = 0; s < rt.update_topic_count(); ++s) {
    auto* t = rt.update_topic(s);
    EXPECT_EQ(t->expected_deliveries(), t->published() * t->subscriber_count()) << c.name;
    expected += t->expected_deliveries();
    delivered += t->delivered();
    pending += t->pending();
  }
  EXPECT_EQ(expected, delivered + pending) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Ladder, OverloadLadder, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<OverloadCase>& info) {
                           return std::string{info.param.name};
                         });

}  // namespace
}  // namespace mutsvc
