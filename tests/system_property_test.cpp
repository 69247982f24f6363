// Cross-application system properties: the design-rule ladder's guarantees
// hold for every application (parameterized over all three), descriptors
// are behaviourally equivalent to the plans they serialize, and the
// staleness bound actually throttles writers.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "apps/gridviz/gridviz.hpp"
#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "component/descriptor.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"

namespace mutsvc::core {
namespace {

using stats::ClientGroup;

/// App registry for parameterized suites.
struct AppCase {
  const char* name;
  apps::AppDriver (*make)();
  HarnessCalibration (*calibrate)();
};

apps::AppDriver make_petstore() {
  static apps::petstore::PetStoreApp app;
  return app.driver();
}
apps::AppDriver make_rubis() {
  static apps::rubis::RubisApp app;
  return app.driver();
}
apps::AppDriver make_gridviz() {
  static apps::gridviz::GridVizApp app;
  return app.driver();
}
HarnessCalibration cal_petstore() { return petstore_calibration(); }
HarnessCalibration cal_rubis() { return rubis_calibration(); }
HarnessCalibration cal_gridviz() { return HarnessCalibration{}; }

const AppCase kApps[] = {
    {"petstore", &make_petstore, &cal_petstore},
    {"rubis", &make_rubis, &cal_rubis},
    {"gridviz", &make_gridviz, &cal_gridviz},
};

// gtest would otherwise print the struct as a byte dump of its pointers,
// which address-space randomization changes on every run; the dump lands
// in the ctest test names, so they would differ from build to build.
void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<Experiment> run(const AppCase& c, ConfigLevel level, double seconds = 500,
                                double warmup = 100) {
  apps::AppDriver driver = c.make();
  ExperimentSpec spec;
  spec.level = level;
  spec.duration = sim::Duration::seconds(seconds);
  spec.warmup = sim::Duration::seconds(warmup);
  auto exp = std::make_unique<Experiment>(driver, spec, c.calibrate());
  exp->run();
  return exp;
}

class EveryApp : public ::testing::TestWithParam<AppCase> {};

TEST_P(EveryApp, FinalConfigurationNeverWorseThanCentralizedForRemoteClients) {
  const AppCase& c = GetParam();
  auto centralized = run(c, ConfigLevel::kCentralized);
  auto final_cfg = run(c, ConfigLevel::kAsyncUpdates);
  apps::AppDriver driver = c.make();
  for (const std::string& pattern : {driver.browser_pattern, driver.writer_pattern}) {
    const double before = centralized->results().pattern_mean_ms(pattern, ClientGroup::kRemote);
    const double after = final_cfg->results().pattern_mean_ms(pattern, ClientGroup::kRemote);
    EXPECT_LT(after, before) << pattern;
  }
}

TEST_P(EveryApp, BlockingPushIsZeroStalenessEverywhere) {
  const AppCase& c = GetParam();
  auto exp = run(c, ConfigLevel::kQueryCaching);  // blocking-push rung
  EXPECT_EQ(exp->runtime().consistency().stale_reads(), 0u) << c.name;
  EXPECT_GT(exp->runtime().consistency().reads(), 0u);
}

TEST_P(EveryApp, AsyncRunsDrainAllUpdates) {
  const AppCase& c = GetParam();
  auto exp = run(c, ConfigLevel::kAsyncUpdates);
  EXPECT_TRUE(exp->runtime().updates_quiescent()) << c.name;
  EXPECT_EQ(exp->runtime().failed_pushes(), 0u);
  EXPECT_EQ(exp->dropped_requests(), 0u);
}

TEST_P(EveryApp, FsmEngineServesBothPatterns) {
  // Every app writes its usage patterns once, as step functions, so every
  // app also runs on the FSM engine: a short closed-loop trial conserves
  // requests and both patterns reach the collector from both client groups.
  const AppCase& c = GetParam();
  apps::AppDriver driver = c.make();
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(20);
  spec.fsm_load.enabled = true;
  Experiment exp{driver, spec, c.calibrate()};
  exp.run();
  const auto& r = exp.results();
  EXPECT_GT(exp.requests_issued(), 0u) << c.name;
  EXPECT_EQ(exp.requests_issued(), r.total_samples() + r.failures() + r.rejections() +
                                       r.discarded_samples() + exp.requests_in_flight())
      << c.name;
  EXPECT_EQ(exp.requests_issued(), exp.pages_started()) << c.name;
  for (const std::string& pattern : {driver.browser_pattern, driver.writer_pattern}) {
    for (ClientGroup group : {ClientGroup::kLocal, ClientGroup::kRemote}) {
      EXPECT_NE(r.pattern_summary(pattern, group), nullptr) << c.name << ": " << pattern;
    }
  }
}

TEST_P(EveryApp, UtilizationStaysInPaperBands) {
  const AppCase& c = GetParam();
  auto exp = run(c, ConfigLevel::kCentralized);
  EXPECT_LT(exp->cpu_utilization(exp->nodes().main_server), 0.40) << c.name;
  if (exp->nodes().db_node != exp->nodes().main_server) {
    // §3.1's <5% DB bound only applies when the DB has its own workstation;
    // co-located databases share the main server's (bounded above) CPUs.
    EXPECT_LT(exp->cpu_utilization(exp->nodes().db_node), 0.06) << c.name;
  }
}

TEST_P(EveryApp, DescriptorRoundTripIsBehaviourallyEquivalent) {
  const AppCase& c = GetParam();
  // Run rung 5 directly.
  auto direct = run(c, ConfigLevel::kAsyncUpdates, 300, 60);

  // Serialize its plan, parse it back, run through custom_plan.
  apps::AppDriver driver = c.make();
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(300);
  spec.warmup = sim::sec(60);
  const std::string text = comp::serialize_descriptor(direct->runtime().plan(),
                                                      direct->network().topology());
  spec.custom_plan = [&text](const TestbedNodes&) -> comp::DeploymentPlan {
    // Parse against a scratch topology with identical (deterministic) names.
    static sim::Simulator scratch_sim;
    static net::Topology* scratch = nullptr;
    if (scratch == nullptr) {
      scratch = new net::Topology{scratch_sim};
      TestbedConfig cfg;
      cfg.db_colocated = true;
      (void)build_testbed(*scratch, cfg);
    }
    return comp::parse_descriptor(text, *scratch);
  };
  // NOTE: parse against the experiment's own topology would be cleaner; we
  // rely on deterministic node-id assignment, verified below.
  auto via_descriptor = std::make_unique<Experiment>(driver, spec, c.calibrate());
  via_descriptor->run();

  const double a =
      direct->results().pattern_mean_ms(driver.browser_pattern, ClientGroup::kRemote);
  const double b =
      via_descriptor->results().pattern_mean_ms(driver.browser_pattern, ClientGroup::kRemote);
  EXPECT_DOUBLE_EQ(a, b) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, EveryApp, ::testing::ValuesIn(kApps),
                         [](const ::testing::TestParamInfo<AppCase>& info) {
                           return std::string{info.param.name};
                         });

TEST(StalenessBoundTest, TightBoundThrottlesBurstWriters) {
  // Pet Store with a staleness bound of 1: commits must occasionally stall
  // waiting for the slowest replica to drain.
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sim::sec(600);
  spec.warmup = sim::sec(60);
  spec.custom_plan = [&app](const TestbedNodes& nodes) {
    auto plan = build_plan(app.application(), app.metadata(), nodes,
                           ConfigLevel::kAsyncUpdates);
    plan.set_staleness_bound(1);
    return plan;
  };
  Experiment exp{app.driver(), spec, petstore_calibration()};
  exp.run();
  EXPECT_GT(exp.runtime().async_publishes(), 0u);
  // The tight bound forces waits whenever two commits land within one
  // propagation window (~100ms) of each other.
  EXPECT_GT(exp.runtime().bounded_waits(), 0u);
  EXPECT_TRUE(exp.runtime().updates_quiescent());
}

}  // namespace
}  // namespace mutsvc::core
