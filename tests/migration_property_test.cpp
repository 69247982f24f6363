// Migration correctness battery (ISSUE 10): properties of the runtime
// placement subsystem that must hold for *every* migration, swept across
// rollout policies (direct flip vs. staged canary) × data-tier shard counts:
//
//   1. Conservation: across a full migration epoch — quiesce, drain,
//      transfer, flip, forwarding, retirement — the harness neither creates
//      nor loses page requests: issued == samples + failures + discarded +
//      in_flight, exactly.
//   2. Version monotonicity: a component's binding version is strictly
//      monotone across every mutation (flip, canary stage, promote,
//      cancel); observed versions over a live run never decrease.
//   3. Straggler-forwarding termination: every call routed by a stale view
//      reaches the new authority during the forwarding epoch; no call
//      arrives at a non-authoritative site after the epoch expires
//      (late_stragglers stays zero).
//
// Plus unit coverage of the BindingTable visibility/canary model, the
// migrate() refusal rules, and the EdgeShiftPolicy hysteresis.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "component/binding.hpp"
#include "component/controller.hpp"
#include "component/deployment.hpp"
#include "component/migration.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"

namespace mutsvc {
namespace {

using comp::BindingTable;
using comp::DeploymentPlan;
using comp::EdgeShiftPolicy;
using comp::MigrationRequest;
using comp::PlacementAction;
using comp::PlacementSnapshot;
using net::NodeId;

// --- BindingTable unit properties --------------------------------------------

DeploymentPlan two_edge_plan(NodeId main, NodeId e0, NodeId e1) {
  DeploymentPlan plan;
  plan.set_main_server(main);
  plan.add_edge_server(e0);
  plan.add_edge_server(e1);
  plan.place("C", main);
  plan.place("C", e0);
  return plan;
}

TEST(BindingTableTest, UnboundComponentResolvesExactlyLikeThePlan) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  const sim::SimTime t = sim::SimTime::origin();
  for (NodeId from : {main, e0, e1}) {
    EXPECT_EQ(table.resolve("C", from, t, 7), plan.resolve("C", from));
  }
  EXPECT_EQ(table.version("C"), 0u);
  EXPECT_EQ(table.bound_components(), 0u);
  EXPECT_FALSE(table.in_forward_epoch("C", t));
  // Unbound: authoritative wherever the plan dispatched it.
  EXPECT_EQ(table.authoritative("C", e1), e1);
}

TEST(BindingTableTest, VersionStrictlyMonotoneAcrossEveryMutation) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  const sim::SimTime t = sim::SimTime::origin() + sim::sec(100);
  std::vector<std::uint64_t> versions;
  versions.push_back(table.version("C"));  // 0: unbound
  table.stage_canary("C", {main, e1}, 0.25);
  versions.push_back(table.version("C"));
  table.cancel_canary("C");
  versions.push_back(table.version("C"));
  table.flip("C", {main, e1}, t, sim::ms(200), {e0, e1});
  versions.push_back(table.version("C"));
  table.stage_canary("C", {main, e0}, 0.5);
  versions.push_back(table.version("C"));
  table.promote_canary("C", t + sim::sec(10), sim::ms(200), {e0, e1});
  versions.push_back(table.version("C"));
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GT(versions[i], versions[i - 1]) << "mutation " << i;
  }
  EXPECT_EQ(table.max_version(), versions.back());
  EXPECT_EQ(table.flips(), 2u);  // flip + promote; stage/cancel are not flips
}

TEST(BindingTableTest, ParticipantsSeeFlipImmediatelyOthersAfterNotifyDelay) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  const sim::SimTime flip_at = sim::SimTime::origin() + sim::sec(60);
  table.flip("C", {main, e1}, flip_at, sim::sec(1), {e0, e1});

  // Participant e1 sees the new binding at flip_at exactly.
  EXPECT_EQ(table.resolve("C", e1, flip_at, 7), e1);
  // Non-participant main still sees the pre-flip set (plan placement:
  // primary main) until flip_at + notify_delay.
  EXPECT_EQ(table.resolve("C", main, flip_at + sim::ms(999), 7), main);
  // A non-participant old-site view routes to its old co-located replica —
  // the straggler the old site must forward. (Fresh table where e0 is not
  // a participant.)
  BindingTable stale{plan};
  stale.flip("C", {main, e1}, flip_at, sim::sec(1), {main, e1});
  EXPECT_EQ(stale.resolve("C", e0, flip_at + sim::ms(500), 7), e0);
  // After the delay every view has converged.
  EXPECT_EQ(stale.resolve("C", e0, flip_at + sim::sec(1), 7), main);
  // The old site is no longer authoritative; the new set is.
  EXPECT_EQ(stale.authoritative("C", e0), main);
  EXPECT_EQ(stale.authoritative("C", e1), e1);
}

TEST(BindingTableTest, ForwardEpochCoversExactlyTheWindowAfterTheFlip) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  table.set_forward_epoch(sim::sec(5));
  const sim::SimTime flip_at = sim::SimTime::origin() + sim::sec(60);
  EXPECT_FALSE(table.in_forward_epoch("C", flip_at));
  table.flip("C", {e1}, flip_at, sim::ms(200), {e0, e1});
  EXPECT_TRUE(table.in_forward_epoch("C", flip_at));
  EXPECT_TRUE(table.in_forward_epoch("C", flip_at + sim::ms(4999)));
  EXPECT_FALSE(table.in_forward_epoch("C", flip_at + sim::sec(5)));
  // Termination by construction: the epoch outlives the visibility lag, so
  // every stale view converges before forwarding stops.
  EXPECT_GT(table.forward_epoch(), sim::ms(200));
}

TEST(BindingTableTest, CanarySelectionIsStickyDeterministicAndProportional) {
  // Same (key, salt, fraction) always answers the same — sticky per
  // session, identical across instances and replays (pure splitmix64, no
  // RNG draws).
  for (std::uint64_t key = 0; key < 200; ++key) {
    const bool a = BindingTable::canary_selects(key, 42, 0.3);
    const bool b = BindingTable::canary_selects(key, 42, 0.3);
    EXPECT_EQ(a, b) << key;
  }
  EXPECT_FALSE(BindingTable::canary_selects(123, 42, 0.0));
  EXPECT_TRUE(BindingTable::canary_selects(123, 42, 1.0));
  // Fractions select roughly proportionally over many keys.
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += BindingTable::canary_selects(static_cast<std::uint64_t>(i), 7, 0.5) ? 1 : 0;
  }
  const double share = static_cast<double>(hits) / n;
  EXPECT_GT(share, 0.47);
  EXPECT_LT(share, 0.53);
}

TEST(BindingTableTest, StagedCanaryRoutesSelectedSessionsOnly) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  table.stage_canary("C", {main, e1}, 0.5);
  const std::uint64_t salt = table.version("C") * 0x632be59bd9b4e019ULL;
  const sim::SimTime t = sim::SimTime::origin() + sim::sec(1);
  int canaried = 0;
  for (std::uint64_t key = 0; key < 500; ++key) {
    const NodeId got = table.resolve("C", e1, t, key);
    if (BindingTable::canary_selects(key, salt, 0.5)) {
      EXPECT_EQ(got, e1) << key;  // canary set has a co-located e1 replica
      ++canaried;
    } else {
      EXPECT_EQ(got, main) << key;  // non-canary keeps the plan's resolution
    }
  }
  EXPECT_GT(canaried, 0);
  EXPECT_LT(canaried, 500);
  // A call landing at the canary site is deliberate, not a straggler.
  EXPECT_EQ(table.authoritative("C", e1), e1);
  table.cancel_canary("C");
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(table.resolve("C", e1, t, key), main) << key;
  }
}

TEST(BindingTableTest, InvalidMutationsThrow) {
  const NodeId main{0}, e0{1}, e1{2};
  DeploymentPlan plan = two_edge_plan(main, e0, e1);
  BindingTable table{plan};
  const sim::SimTime t = sim::SimTime::origin();
  EXPECT_THROW(table.flip("C", {}, t, sim::ms(200), {}), std::invalid_argument);
  EXPECT_THROW(table.stage_canary("C", {e1}, 0.0), std::invalid_argument);
  EXPECT_THROW(table.stage_canary("C", {e1}, 1.5), std::invalid_argument);
  EXPECT_THROW(table.stage_canary("C", {}, 0.5), std::invalid_argument);
  EXPECT_THROW(table.promote_canary("C", t, sim::ms(200), {}), std::logic_error);
  table.cancel_canary("C");  // no staged canary: a no-op, never a throw
  EXPECT_EQ(table.version("C"), 0u);
}

// --- EdgeShiftPolicy hysteresis ----------------------------------------------

PlacementSnapshot snapshot(NodeId holder, std::uint64_t e0_pages, std::uint64_t e1_pages) {
  PlacementSnapshot snap;
  snap.replica_holder = holder;
  snap.edge_pages = {{NodeId{1}, e0_pages}, {NodeId{2}, e1_pages}};
  return snap;
}

TEST(EdgeShiftPolicyTest, MigratesOnlyAfterConfirmQuantaConsecutiveHotReadings) {
  EdgeShiftPolicy policy{{.high_share = 0.6, .low_share = 0.4, .confirm_quanta = 2}};
  const NodeId e0{1}, e1{2};
  EXPECT_TRUE(policy.decide(snapshot(e0, 20, 80)).empty());  // streak 1
  const auto acts = policy.decide(snapshot(e0, 20, 80));     // streak 2: go
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, PlacementAction::Kind::kMigrateReplicaSet);
  EXPECT_EQ(acts[0].from, e0);
  EXPECT_EQ(acts[0].to, e1);
}

TEST(EdgeShiftPolicyTest, StreakResetsWhenTheSignalDips) {
  EdgeShiftPolicy policy{{.high_share = 0.6, .low_share = 0.4, .confirm_quanta = 2}};
  const NodeId e0{1};
  EXPECT_TRUE(policy.decide(snapshot(e0, 20, 80)).empty());  // streak 1
  EXPECT_TRUE(policy.decide(snapshot(e0, 50, 50)).empty());  // dip: reset
  EXPECT_TRUE(policy.decide(snapshot(e0, 20, 80)).empty());  // streak 1 again
  EXPECT_FALSE(policy.decide(snapshot(e0, 20, 80)).empty());
}

TEST(EdgeShiftPolicyTest, HoldsWhenHolderIsHotOrTrafficIsZero) {
  EdgeShiftPolicy policy{{.high_share = 0.6, .low_share = 0.4, .confirm_quanta = 1}};
  const NodeId e0{1};
  // Holder still carries more than low_share: hold.
  EXPECT_TRUE(policy.decide(snapshot(e0, 45, 55)).empty());
  // No traffic at all: hold.
  EXPECT_TRUE(policy.decide(snapshot(e0, 0, 0)).empty());
  // Holder is itself the hottest edge: hold.
  EXPECT_TRUE(policy.decide(snapshot(e0, 80, 20)).empty());
}

// --- Live-run properties: conservation, monotonicity, termination ------------

[[nodiscard]] sim::Task<void> run_migration(comp::MigrationManager& m, MigrationRequest req, bool* out) {
  const bool ok = co_await m.migrate(std::move(req));
  if (out != nullptr) *out = ok;
}

struct EpochCase {
  const char* name;
  std::size_t shards;
  double canary_fraction;  // 0 = direct flip, >0 = staged rollout
};

const EpochCase kEpochs[] = {
    {"flip_s1", 1, 0.0},
    {"flip_s2", 2, 0.0},
    {"canary_s1", 1, 0.4},
    {"canary_s2", 2, 0.4},
};

// gtest would otherwise print the struct as a byte dump of its pointers,
// which address-space randomization changes on every run; the dump lands
// in the ctest test names, so they would differ from build to build.
void PrintTo(const EpochCase& c, std::ostream* os) { *os << c.name; }

class MigrationEpoch : public ::testing::TestWithParam<EpochCase> {};

TEST_P(MigrationEpoch, ConservesRequestsAndKeepsVersionsMonotone) {
  // Full petstore ladder top (replicas + query caches at both edges, async
  // updates) under live load, with two back-to-back migrations of the
  // Catalog facade and its read-mostly replica set: edge0 -> edge1 at 60 s,
  // back edge1 -> edge0 at 110 s. Both the quiesce/drain/transfer/flip/
  // forward/retire epoch and the steady states around it must conserve
  // every issued request and keep the binding version strictly monotone.
  const EpochCase& c = GetParam();
  const std::vector<std::string> kComponents{"Catalog"};
  const std::vector<std::string> kEntities{"Category", "Product", "Item", "Inventory"};

  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.shard.shards = c.shards;
  spec.duration = sim::sec(150);
  spec.warmup = sim::sec(30);
  spec.placement.enabled = true;  // binding table + migrator, no controller
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  ASSERT_NE(exp.bindings(), nullptr);
  ASSERT_NE(exp.migrator(), nullptr);
  EXPECT_EQ(exp.placement_controller(), nullptr);  // no policy installed

  const net::NodeId e0 = exp.nodes().edge_servers[0];
  const net::NodeId e1 = exp.nodes().edge_servers[1];
  bool first_ok = false, second_ok = false;
  auto schedule = [&](sim::Duration at, net::NodeId from, net::NodeId to, bool* out) {
    exp.simulator().schedule_at(sim::SimTime::origin() + at, [&, from, to, out] {
      MigrationRequest req;
      req.from = from;
      req.to = to;
      req.components = kComponents;
      req.entities = kEntities;
      req.canary_fraction = c.canary_fraction;
      exp.simulator().spawn(run_migration(*exp.migrator(), std::move(req), out));
    });
  };
  schedule(sim::sec(60), e0, e1, &first_ok);
  schedule(sim::sec(110), e1, e0, &second_ok);

  // Sample the binding version every 5 s: observed versions must never
  // decrease anywhere in the run (property 2, live form).
  std::vector<std::uint64_t> observed;
  for (int s = 0; s <= 150; s += 5) {
    exp.simulator().schedule_at(sim::SimTime::origin() + sim::sec(s), [&] {
      observed.push_back(exp.bindings()->version("Catalog"));
    });
  }

  exp.run();

  EXPECT_TRUE(first_ok) << c.name;
  EXPECT_TRUE(second_ok) << c.name;
  EXPECT_EQ(exp.migrator()->started(), 2u);
  EXPECT_EQ(exp.migrator()->completed(), 2u);
  EXPECT_EQ(exp.migrator()->rolled_back(), 0u);
  EXPECT_EQ(exp.migrator()->refused(), 0u);
  EXPECT_FALSE(exp.migrator()->in_progress());
  // Warm replicas moved with the binding both times.
  EXPECT_GT(exp.migrator()->entries_transferred(), 0u);

  // Property 1: conservation across the whole run, migration epochs
  // included (same identity the shard battery asserts on the static
  // ladder).
  const auto& r = exp.results();
  EXPECT_GT(exp.requests_issued(), 0u);
  EXPECT_EQ(exp.requests_issued(),
            r.total_samples() + r.failures() + r.discarded_samples() + exp.requests_in_flight())
      << c.name << ": issued=" << exp.requests_issued() << " samples=" << r.total_samples()
      << " failures=" << r.failures() << " discarded=" << r.discarded_samples()
      << " in_flight=" << exp.requests_in_flight();
  // Fault-free migrations drop nothing: quiesced calls park and resume.
  EXPECT_EQ(r.failures(), 0u);
  EXPECT_EQ(exp.dropped_requests(), 0u);

  // Property 2: sampled versions are non-decreasing and both migrations
  // advanced them (a direct flip bumps once, a canary stage+promote twice).
  ASSERT_FALSE(observed.empty());
  for (std::size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i], observed[i - 1]) << c.name << " sample " << i;
  }
  const std::uint64_t bumps_per_migration = c.canary_fraction > 0.0 ? 2 : 1;
  EXPECT_EQ(exp.bindings()->version("Catalog"), 2 * bumps_per_migration);
  EXPECT_EQ(exp.bindings()->flips(), 2u);

  // Property 3: forwarding terminated — nothing arrived at a
  // non-authoritative site after a forwarding epoch expired.
  EXPECT_EQ(exp.runtime().late_stragglers(), 0u);

  // Retirement moved the replica membership there and back: edge0 holds the
  // read-mostly set again, edge1 left it.
  for (const std::string& entity : kEntities) {
    EXPECT_TRUE(exp.runtime().plan().has_ro_replica(entity, e0)) << entity;
    EXPECT_FALSE(exp.runtime().plan().has_ro_replica(entity, e1)) << entity;
  }
}

INSTANTIATE_TEST_SUITE_P(PoliciesTimesShards, MigrationEpoch, ::testing::ValuesIn(kEpochs),
                         [](const ::testing::TestParamInfo<EpochCase>& info) {
                           return std::string{info.param.name};
                         });

TEST(MigrationForwardingTest, StaleViewsForwardFromTheOldSiteUntilConvergence) {
  // Binding-only migration of the Catalog facade main -> edge0 with a long
  // (2 s) visibility lag: the remote islands keep routing Catalog calls to
  // the main server until their views converge, and the old site must
  // forward every one of those stragglers to the new authority — then stop
  // cleanly once the epoch expires. Also exercises every migrate() refusal
  // rule against the same live run.
  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kRemoteFacade;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(30);
  spec.placement.enabled = true;
  spec.placement.migration.notify_delay = sim::sec(2);
  spec.placement.migration.forward_epoch = sim::sec(5);
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};

  const net::NodeId main = exp.nodes().main_server;
  const net::NodeId e0 = exp.nodes().edge_servers[0];
  bool moved = false, self = true, empty = true, overlapped = true;
  exp.simulator().schedule_at(sim::SimTime::origin() + sim::sec(10), [&] {
    MigrationRequest noop;  // from == to: refused
    noop.from = main;
    noop.to = main;
    noop.components = {"Catalog"};
    exp.simulator().spawn(run_migration(*exp.migrator(), std::move(noop), &self));
    MigrationRequest hollow;  // no components: refused
    hollow.from = main;
    hollow.to = e0;
    exp.simulator().spawn(run_migration(*exp.migrator(), std::move(hollow), &empty));
  });
  exp.simulator().schedule_at(sim::SimTime::origin() + sim::sec(60), [&] {
    MigrationRequest req;
    req.from = main;
    req.to = e0;
    req.components = {"Catalog"};
    exp.simulator().spawn(run_migration(*exp.migrator(), std::move(req), &moved));
  });
  exp.simulator().schedule_at(sim::SimTime::origin() + sim::sec(61), [&] {
    MigrationRequest req;  // one already in progress (forwarding epoch): refused
    req.from = e0;
    req.to = main;
    req.components = {"Catalog"};
    exp.simulator().spawn(run_migration(*exp.migrator(), std::move(req), &overlapped));
  });

  exp.run();

  EXPECT_TRUE(moved);
  EXPECT_FALSE(self);
  EXPECT_FALSE(empty);
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(exp.migrator()->completed(), 1u);
  EXPECT_EQ(exp.migrator()->refused(), 3u);
  EXPECT_EQ(exp.migrator()->rolled_back(), 0u);
  EXPECT_EQ(exp.bindings()->version("Catalog"), 1u);

  // Stragglers flowed through the old site during the visibility window...
  EXPECT_GT(exp.runtime().forwarded_calls(), 0u);
  // ...and none arrived after the forwarding epoch expired (termination).
  EXPECT_EQ(exp.runtime().late_stragglers(), 0u);

  // The epoch conserved every request despite the rerouting.
  const auto& r = exp.results();
  EXPECT_EQ(exp.requests_issued(),
            r.total_samples() + r.failures() + r.discarded_samples() + exp.requests_in_flight());
  EXPECT_EQ(r.failures(), 0u);
}

}  // namespace
}  // namespace mutsvc
