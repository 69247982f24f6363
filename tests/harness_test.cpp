// Harness-layer coverage: report printers, WAN-call invariants per page
// (the §4.2 "no more than one RMI call" rule, measured), and experiment
// spec knobs.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/petstore/petstore.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace mutsvc::core {
namespace {

using stats::ClientGroup;

// --- report printers -----------------------------------------------------------

TEST(ReportTest, PaperTablePrintsAllPagesAndConfigs) {
  apps::petstore::PetStoreApp app;
  apps::AppDriver driver = app.driver();

  stats::ResponseTimeCollector collector;
  collector.record(sim::SimTime::origin(), "Item", "Browser", ClientGroup::kLocal, sim::ms(55));
  collector.record(sim::SimTime::origin(), "Item", "Browser", ClientGroup::kRemote, sim::ms(57));

  std::ostringstream os;
  print_paper_table(os, driver, {{ConfigLevel::kStatefulComponentCaching, &collector}});
  const std::string out = os.str();
  EXPECT_NE(out.find("Stateful component caching"), std::string::npos);
  EXPECT_NE(out.find("Verify Signin"), std::string::npos);  // every column present
  EXPECT_NE(out.find("55"), std::string::npos);
  EXPECT_NE(out.find("57"), std::string::npos);
  // Pages without samples render as "-".
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(ReportTest, SessionAveragesUseAppPatternNames) {
  apps::petstore::PetStoreApp app;
  apps::AppDriver driver = app.driver();
  stats::ResponseTimeCollector collector;
  collector.record(sim::SimTime::origin(), "Main", "Buyer", ClientGroup::kRemote, sim::ms(80));
  std::ostringstream os;
  print_session_averages(os, driver, {{ConfigLevel::kCentralized, &collector}});
  EXPECT_NE(os.str().find("Remote Buyer"), std::string::npos);
  EXPECT_NE(os.str().find("80"), std::string::npos);
}

// --- measured per-page WAN-call invariants (§4.2) --------------------------------

struct WanProbe {
  apps::petstore::PetStoreApp app;
  std::unique_ptr<Experiment> exp;

  explicit WanProbe(ConfigLevel level) {
    ExperimentSpec spec;
    spec.level = level;
    spec.duration = sim::sec(1);  // we drive requests by hand
    spec.warmup = sim::Duration::zero();
    HarnessCalibration cal = petstore_calibration();
    cal.rmi.extra_rtt_prob = 0.0;  // deterministic message counts
    exp = std::make_unique<Experiment>(app.driver(), spec, cal);
  }

  /// WAN messages used by one page request from the remote client (caches
  /// and stubs pre-warmed by an identical request).
  std::uint64_t wan_messages(const char* method, std::vector<db::Value> args) {
    workload::PageRequest req;
    req.page = method;
    req.pattern = "probe";
    req.component = "PetStoreWeb";
    req.method = method;
    req.args = std::move(args);
    const net::NodeId client = exp->nodes().remote_clients[0];
    for (int warm = 0; warm < 2; ++warm) {
      exp->simulator().spawn([](Experiment& e, net::NodeId c,
                                const workload::PageRequest& r) -> sim::Task<void> {
        comp::TraceSink sink;
        co_await e.execute_traced(c, r, sink);
      }(*exp, client, req));
      exp->simulator().run_until();
      if (warm == 0) exp->network().reset_counters();
    }
    return exp->network().wan_messages_sent();
  }
};

TEST(WanInvariantTest, CentralizedPagePaysHttpMessages) {
  WanProbe probe{ConfigLevel::kCentralized};
  // Warm run keeps the connection-less HTTP cost: SYN, SYN-ACK, request,
  // response = 4 WAN messages.
  EXPECT_EQ(probe.wan_messages("main", {}), 4u);
}

TEST(WanInvariantTest, FacadePageCostsAtMostOneRmi) {
  // §4.2: "we rewrote the application code so that every page included in
  // the experiment incurs no more than one RMI call" — 2 WAN messages.
  WanProbe probe{ConfigLevel::kRemoteFacade};
  EXPECT_EQ(probe.wan_messages("category", {db::Value{std::int64_t{1}}}), 2u);
  EXPECT_EQ(probe.wan_messages("item", {db::Value{std::int64_t{1001001}}}), 2u);
  EXPECT_EQ(probe.wan_messages("main", {}), 0u);  // edge-local
}

TEST(WanInvariantTest, VerifySigninIsTheDocumentedException) {
  // §4.2: "The only exception is the Verify Signin page, which makes two
  // RMI calls" — 4 WAN messages.
  WanProbe probe{ConfigLevel::kRemoteFacade};
  EXPECT_EQ(probe.wan_messages("verifysignin", {db::Value{std::int64_t{1}}}), 4u);
}

TEST(WanInvariantTest, CachedPagesUseZeroWanMessages) {
  WanProbe probe{ConfigLevel::kQueryCaching};
  EXPECT_EQ(probe.wan_messages("item", {db::Value{std::int64_t{1001001}}}), 0u);
  EXPECT_EQ(probe.wan_messages("category", {db::Value{std::int64_t{1}}}), 0u);
  // The keyword search is never cached: still one RMI.
  EXPECT_EQ(probe.wan_messages("search", {db::Value{std::string{"fish"}}}), 2u);
}

// --- spec knobs ---------------------------------------------------------------------

TEST(ExperimentSpecTest, OfferedRateKnobScalesSampleCount) {
  apps::petstore::PetStoreApp app;
  auto run_with_rate = [&](double rate) {
    ExperimentSpec spec;
    spec.level = ConfigLevel::kRemoteFacade;
    spec.duration = sim::sec(300);
    spec.warmup = sim::Duration::zero();
    spec.total_request_rate = rate;
    Experiment exp{app.driver(), spec, petstore_calibration()};
    exp.run();
    return exp.results().total_samples();
  };
  const auto low = run_with_rate(6.0);
  const auto high = run_with_rate(30.0);
  EXPECT_NEAR(static_cast<double>(high) / static_cast<double>(low), 5.0, 1.0);
}

TEST(ExperimentSpecTest, BrowserFractionControlsPatternMix) {
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.duration = sim::sec(400);
  spec.warmup = sim::Duration::zero();
  spec.browser_fraction = 0.5;
  Experiment exp{app.driver(), spec, petstore_calibration()};
  exp.run();
  const stats::Summary* browser = exp.results().pattern_summary("Browser", ClientGroup::kLocal);
  const stats::Summary* buyer = exp.results().pattern_summary("Buyer", ClientGroup::kLocal);
  ASSERT_NE(browser, nullptr);
  ASSERT_NE(buyer, nullptr);
  const double ratio = static_cast<double>(browser->count()) /
                       static_cast<double>(browser->count() + buyer->count());
  EXPECT_NEAR(ratio, 0.5, 0.1);
}

}  // namespace
}  // namespace mutsvc::core
