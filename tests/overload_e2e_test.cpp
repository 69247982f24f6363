// End-to-end overload-protection battery (ISSUE 6): admission control,
// bounded queues, WAN shaping and backpressure wired through the full
// experiment harness. Asserts the conservation identities
//   pages_started == requests_admitted + rejected_admission
//   issued == samples + failures + rejections + discarded + in_flight
// across the config ladder × overflow policies × fault plans, that kBounce
// rides the page-retry machinery, that a disabled (and a merely-enabled)
// flow config leaves the trajectory bit-identical, and that flow-enabled
// runs are deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "net/flowcontrol.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"

namespace mutsvc {
namespace {

using core::ConfigLevel;
using core::Experiment;
using core::ExperimentSpec;
using net::OverflowPolicy;

// Open-loop load is Poisson session arrivals (the FSM engine's arrival
// layer) at a page-rate equivalent: page rate / mean pages per session.
// Pet Store's 80/20 mix averages 0.8*20 + 0.2*9 pages, RUBiS's 0.8*40 + 0.2*7.
constexpr double kPetStorePagesPerSession = 0.8 * 20 + 0.2 * 9;
constexpr double kRubisPagesPerSession = 0.8 * 40 + 0.2 * 7;

void open_loop(ExperimentSpec& spec, double pages_per_sec, double pages_per_session) {
  spec.fsm_load.enabled = true;
  spec.fsm_load.arrivals = workload::RateEnvelope::constant(pages_per_sec / pages_per_session);
}

// Bounced queue overflows must ride the existing transient-failure paths.
static_assert(std::is_base_of_v<net::NetError, net::OverloadError>,
              "OverloadError must be retryable as a NetError");

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
  spec.flow.enabled = true;
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
  spec.flow.enabled = true;
  spec.flow.admission_rate = 50.0;  // far above the offer
  Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();
  EXPECT_EQ(exp.rejected_admission(), 0u);
  EXPECT_EQ(exp.results().rejections(), 0u);
  assert_conservation(exp, "under-load");
}

// --- Zero-diff when disabled -------------------------------------------------

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

TEST(ZeroDiffTest, EnabledButUnconfiguredFlowIsByteIdenticalToDisabled) {
  // `enabled = true` with every knob at its default (no admission rate, no
  // bounds, no WAN limit) must not perturb the trajectory at all: every
  // flow-control branch is dead, credit gates never close, and the only
  // code that runs is capacity==0 checks.
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(20);
  spec.seed = 1234;
  const RunDigest off = run_digest(spec);
  spec.flow.enabled = true;
  const RunDigest on = run_digest(spec);
  EXPECT_EQ(off.issued, on.issued);
  EXPECT_EQ(off.samples, on.samples);
  EXPECT_EQ(off.dropped, on.dropped);
  // Exact double equality: identical trajectories produce identical sums.
  EXPECT_EQ(off.local_mean, on.local_mean);
  EXPECT_EQ(off.remote_mean, on.remote_mean);
  EXPECT_TRUE(off == on);
}

TEST(ZeroDiffTest, FlowEnabledRunIsDeterministic) {
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(100);
  spec.warmup = sim::sec(20);
  spec.seed = 99;
  open_loop(spec, 45.0, kPetStorePagesPerSession);
  spec.flow.enabled = true;
  spec.flow.admission_rate = 8.0;
  spec.flow.topic_queue.capacity = 8;
  spec.flow.topic_queue.policy = OverflowPolicy::kLocalOverflow;
  spec.flow.wan_rate_bps = 2e6;
  const RunDigest a = run_digest(spec);
  const RunDigest b = run_digest(spec);
  EXPECT_TRUE(a == b) << "same spec, same seed -> bit-identical results";
}

// --- Bounded queues × policies × faults across the ladder --------------------

struct OverloadCase {
  const char* name;
  ConfigLevel level;
  OverflowPolicy policy;
  double loss_prob;  // stochastic message loss (PR 2 fault machinery)
};

const OverloadCase kCases[] = {
    {"facade_drop", ConfigLevel::kRemoteFacade, OverflowPolicy::kDrop, 0.0},
    {"async_drop_lossy", ConfigLevel::kAsyncUpdates, OverflowPolicy::kDrop, 0.01},
    {"async_bounce", ConfigLevel::kAsyncUpdates, OverflowPolicy::kBounce, 0.0},
    {"async_spill_lossy", ConfigLevel::kAsyncUpdates, OverflowPolicy::kLocalOverflow, 0.01},
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
  spec.flow.enabled = true;
  spec.flow.admission_rate = 12.0;
  spec.flow.topic_queue.capacity = 4;
  spec.flow.topic_queue.policy = c.policy;
  spec.flow.write_queue.capacity = 16;
  spec.flow.write_queue.policy = OverflowPolicy::kDrop;
  if (c.loss_prob > 0.0) {
    spec.fault_plan.loss_prob = c.loss_prob;
    spec.resilience.enabled = true;
    spec.resilience.http_retries = 2;
  }
  Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();

  assert_conservation(exp, c.name);
  EXPECT_GT(exp.rejected_admission(), 0u) << c.name << ": 2x overload must trip admission";

  // Per-topic conservation: every fan-out copy is delivered, shed, or
  // still pending at the cut-off — by construction and by counter.
  comp::Runtime& rt = exp.runtime();
  std::uint64_t expected = 0, delivered = 0, shed = 0, pending = 0;
  for (std::size_t s = 0; s < rt.update_topic_count(); ++s) {
    auto* t = rt.update_topic(s);
    expected += t->expected_deliveries();
    delivered += t->delivered();
    shed += t->shed();
    pending += t->pending();
    EXPECT_EQ(t->publish_attempts(), t->published() + t->bounced()) << c.name;
  }
  EXPECT_EQ(expected, delivered + shed + pending) << c.name;
  if (c.policy == OverflowPolicy::kBounce) {
    EXPECT_EQ(rt.topic_shed(), 0u) << "bounce never sheds accepted messages";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, OverloadLadder, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<OverloadCase>& info) {
                           return std::string{info.param.name};
                         });

// --- kBounce consumes the page-retry budget ----------------------------------

TEST(BouncePolicyTest, BouncedPublishesConsumeWholePageRetries) {
  // Tiny topic capacity under heavy writes: publishes bounce out of the
  // façade as OverloadError, which the client treats like any transient
  // network fault — bounded whole-page retries, then a recorded failure.
  // The run must terminate (bounded retries) and conserve every request.
  apps::rubis::RubisApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(20);
  spec.seed = 77;
  // Heavy enough that the capacity-1 queue is full across a whole page's
  // retry schedule (RMI-level retries cushion each attempt, so a marginal
  // overload lets every page through eventually).
  open_loop(spec, 240.0, kRubisPagesPerSession);
  spec.resilience.enabled = true;  // grants http_retries whole-page retries
  spec.resilience.http_retries = 2;
  spec.flow.enabled = true;
  spec.flow.topic_queue.capacity = 1;
  spec.flow.topic_queue.policy = OverflowPolicy::kBounce;
  // Backpressure would park writers at the credit gate before they ever see
  // a full queue; turn it off so the bounce policy itself is exercised.
  spec.flow.backpressure = false;
  Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();

  assert_conservation(exp, "bounce-retries");
  EXPECT_GT(exp.runtime().topic_bounced(), 0u) << "capacity 1 must bounce under 2x load";
  // Some pages exhausted their retry budget on repeated bounces.
  EXPECT_GT(exp.dropped_requests(), 0u);
  EXPECT_GT(exp.results().failures(), 0u);
}

// --- WAN rate limiting -------------------------------------------------------

TEST(WanRateLimitTest, ShapingThrottlesWanTrafficAndSlowsRemotes) {
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kCentralized;  // remote pages cross the WAN
  spec.duration = sim::sec(100);
  spec.warmup = sim::sec(20);
  spec.seed = 5;

  Experiment free{app.driver(), spec, core::petstore_calibration()};
  free.run();
  EXPECT_EQ(free.network().wan_throttled(), 0u) << "no limit installed";
  const double free_remote =
      free.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);

  spec.flow.enabled = true;
  spec.flow.wan_rate_bps = 256e3;  // 256 kbit/s chokes the page bodies
  spec.flow.wan_burst_bytes = 4 * 1024;
  Experiment shaped{app.driver(), spec, core::petstore_calibration()};
  shaped.run();
  EXPECT_GT(shaped.network().wan_throttled(), 0u);
  EXPECT_GT(shaped.network().wan_throttle_time(), sim::Duration::zero());
  const double shaped_remote =
      shaped.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);
  EXPECT_GT(shaped_remote, free_remote) << "shaped WAN must slow remote pages";
  assert_conservation(shaped, "wan-shaped");
}

// --- Backpressure ------------------------------------------------------------

TEST(BackpressureTest, CreditGatesEngageUnderUpdatePressure) {
  apps::rubis::RubisApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(20);
  spec.seed = 11;
  open_loop(spec, 60.0, kRubisPagesPerSession);
  spec.flow.enabled = true;
  spec.flow.backpressure = true;
  spec.flow.topic_queue.capacity = 2;
  spec.flow.topic_queue.policy = OverflowPolicy::kLocalOverflow;
  Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();

  assert_conservation(exp, "backpressure");
  // Under 2x load with capacity 2 the protection must engage somewhere:
  // writers stall on credit, or arrivals divert into spill.
  const std::uint64_t engaged =
      exp.runtime().credit_stalls() + exp.runtime().topic_spilled();
  EXPECT_GT(engaged, 0u);
  // Spill + backpressure never terminally shed with an unbounded spill.
  EXPECT_EQ(exp.runtime().topic_shed(), 0u);
}

}  // namespace
}  // namespace mutsvc
