// The FSM load engine wired through the full experiment harness (ISSUE 9):
// conservation under the end-of-run rule, refusal for drivers without FSM
// models, bit-identical results on across-trial sweep workers, the
// Zipf hot-shard scenario, and arrival envelopes at the spec level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "workload/arrivals.hpp"

namespace mutsvc {
namespace {

using core::ConfigLevel;
using core::Experiment;
using core::ExperimentSpec;

ExperimentSpec fsm_spec() {
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(30);
  spec.seed = 11;
  spec.total_request_rate = 30.0;
  spec.fsm_load.enabled = true;
  return spec;
}

TEST(FsmExperimentTest, ClosedLoopRunConservesRequests) {
  apps::petstore::PetStoreApp app;
  core::Experiment exp{app.driver(), fsm_spec(), core::petstore_calibration()};
  exp.run();

  const auto& r = exp.results();
  EXPECT_GT(exp.requests_issued(), 0u);
  EXPECT_GT(r.total_samples(), 0u);
  EXPECT_EQ(exp.requests_issued(), r.total_samples() + r.failures() + r.rejections() +
                                       r.discarded_samples() + exp.requests_in_flight());
  EXPECT_EQ(exp.requests_issued(), exp.pages_started());
  EXPECT_GT(exp.sessions_started(), 0u);
  // The closed-loop population is sized like the coroutine driver: 30/s
  // over three groups with a 7s think -> 70 recurring sessions per group,
  // 210 resident until the end cutoff.
  EXPECT_EQ(exp.fsm_peak_live_sessions(), 210u);
  // Both usage patterns must flow through to the collector.
  EXPECT_GT(r.pattern_mean_ms("Browser", stats::ClientGroup::kLocal), 0.0);
  EXPECT_GT(r.pattern_mean_ms("Buyer", stats::ClientGroup::kLocal), 0.0);
}

TEST(FsmExperimentTest, RepeatRunsAreBitIdentical) {
  auto digest = [] {
    apps::petstore::PetStoreApp app;
    core::Experiment exp{app.driver(), fsm_spec(), core::petstore_calibration()};
    exp.run();
    const auto& r = exp.results();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    fold(exp.requests_issued());
    fold(exp.sessions_started());
    fold(r.total_samples());
    fold(static_cast<std::uint64_t>(r.pattern_mean_ms("Browser", stats::ClientGroup::kLocal) *
                                    1e6));
    fold(static_cast<std::uint64_t>(r.pattern_mean_ms("Buyer", stats::ClientGroup::kRemote) *
                                    1e6));
    return h;
  };
  EXPECT_EQ(digest(), digest());
}

TEST(FsmExperimentTest, SweepWorkersLeaveResultsBitIdentical) {
  // Each trial owns its Simulator and FSM engines, so running the same spec
  // on core::sweep worker threads must reproduce the inline trajectory
  // exactly.
  auto run_once = [] {
    apps::petstore::PetStoreApp app;
    core::Experiment exp{app.driver(), fsm_spec(), core::petstore_calibration()};
    exp.run();
    const auto& r = exp.results();
    std::vector<double> digest;
    digest.push_back(static_cast<double>(exp.requests_issued()));
    digest.push_back(static_cast<double>(exp.sessions_started()));
    digest.push_back(static_cast<double>(r.total_samples()));
    digest.push_back(r.pattern_mean_ms("Browser", stats::ClientGroup::kLocal));
    digest.push_back(r.pattern_mean_ms("Browser", stats::ClientGroup::kRemote));
    digest.push_back(r.pattern_mean_ms("Buyer", stats::ClientGroup::kLocal));
    return digest;
  };
  const std::vector<double> inline_run = run_once();
  std::vector<std::function<std::vector<double>()>> trials(2, run_once);
  for (const std::vector<double>& pooled : core::sweep::run_trials(std::move(trials), 2)) {
    EXPECT_EQ(pooled, inline_run);
  }
}

TEST(FsmExperimentTest, DriverWithoutModelsIsRefused) {
  apps::rubis::RubisApp app;
  apps::AppDriver driver = app.driver();
  driver.fsm_browser_model = nullptr;
  driver.fsm_writer_model = nullptr;
  core::Experiment exp{driver, fsm_spec(), core::rubis_calibration()};
  EXPECT_THROW(exp.run(), std::invalid_argument);
}

TEST(FsmExperimentTest, ArrivalEnvelopeDrivesSessionCounts) {
  // Diurnal session arrivals at the spec level: the number of sessions
  // started tracks the envelope's integral (split across groups and kinds
  // inside the harness, so the combined count is the whole integral).
  apps::petstore::PetStoreApp app;
  ExperimentSpec spec = fsm_spec();
  spec.duration = sim::sec(240);
  spec.fsm_load.arrivals = workload::RateEnvelope::diurnal(1.0, 9.0, sim::sec(120));
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();
  const double expected =
      spec.fsm_load.arrivals.expected_count(sim::Duration::zero(), sim::sec(240));
  EXPECT_NEAR(static_cast<double>(exp.sessions_started()), expected, expected * 0.15);
  // The truncated run leaves exactly the awaiting-response tail resident:
  // every live session holds one in-flight request and nothing else.
  EXPECT_EQ(exp.fsm_live_sessions(), exp.requests_in_flight());
  const auto& r = exp.results();
  EXPECT_EQ(exp.requests_issued(), r.total_samples() + r.failures() + r.rejections() +
                                       r.discarded_samples() + exp.requests_in_flight());
}

TEST(FsmExperimentTest, ZipfSkewConcentratesWritesOnTheHotShard) {
  // zipf_s > 0 funnels item popularity onto rank 0 (item 1001001), so one
  // data-tier shard sees disproportionate load relative to a uniform run.
  auto hot_shard_share = [](double zipf_s) {
    apps::petstore::PetStoreApp app;
    ExperimentSpec spec = fsm_spec();
    // Remote facade: no state/query caches, so item reads actually reach
    // the data tier (the cache levels would absorb the hot head and erase
    // the very skew this scenario is about).
    spec.level = ConfigLevel::kRemoteFacade;
    spec.shard.shards = 4;
    // All browsers: the Item page carries 45% of the FSM's weight, so the
    // Zipf head dominates the data-tier traffic.
    spec.browser_fraction = 1.0;
    spec.fsm_load.zipf_s = zipf_s;
    core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
    exp.run();
    const std::size_t hot = exp.database().router().shard_of(1001001);
    double hot_util = 0.0;
    double total_util = 0.0;
    double max_other = 0.0;
    const auto& db_nodes = exp.nodes().db_nodes;
    for (std::size_t s = 0; s < db_nodes.size(); ++s) {
      const double u = exp.cpu_utilization(db_nodes[s]);
      total_util += u;
      if (s == hot) {
        hot_util = u;
      } else {
        max_other = std::max(max_other, u);
      }
    }
    struct Shares {
      double hot_share;
      bool hot_is_max;
    };
    return Shares{hot_util / total_util, hot_util > max_other};
  };
  const auto uniform = hot_shard_share(0.0);
  const auto skewed = hot_shard_share(2.0);
  // 4 shards: uniform load spreads ~25% each. Zipf(2) puts ~61% of *item*
  // draws on the hot key, but the item PK lookup is only one slice of each
  // page's data-tier work, so the hot shard's overall share lands near 29%
  // — clearly the maximum, several points above every sibling.
  EXPECT_NEAR(uniform.hot_share, 0.25, 0.01);
  EXPECT_GT(skewed.hot_share, uniform.hot_share + 0.03)
      << "uniform=" << uniform.hot_share << " skewed=" << skewed.hot_share;
  EXPECT_TRUE(skewed.hot_is_max) << "the hot key's shard must dominate under skew";
}

}  // namespace
}  // namespace mutsvc
