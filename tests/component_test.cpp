#include <gtest/gtest.h>

#include "component/binding.hpp"
#include "component/deployment.hpp"
#include "component/kind.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "net/network.hpp"
#include "net/rmi.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::comp {
namespace {

using db::Query;
using db::Row;
using db::Value;
using net::NodeId;
using sim::Duration;
using sim::ms;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

net::RmiConfig quiet_rmi() {
  net::RmiConfig cfg;
  cfg.extra_rtt_prob = 0.0;
  cfg.dgc_traffic_factor = 1.0;
  return cfg;
}

RuntimeConfig zero_cost_runtime() {
  RuntimeConfig cfg;
  cfg.local_dispatch = Duration::zero();
  cfg.entity_access = Duration::zero();
  cfg.cache_access = Duration::zero();
  cfg.apply_update = Duration::zero();
  cfg.mdb_dispatch = Duration::zero();
  cfg.jms_accept = Duration::zero();
  return cfg;
}

db::DbCostModel zero_db_cost() {
  db::DbCostModel m;
  m.pk_lookup = m.finder_base = m.aggregate_base = m.keyword_base = Duration::zero();
  m.finder_per_row = m.aggregate_per_row = m.keyword_per_row = Duration::zero();
  m.update = m.insert = m.del = Duration::zero();
  return m;
}

/// Main server (co-located with the DB, as in the paper's RUBiS testbed)
/// plus two edge servers across a 100 ms WAN.
struct World {
  Simulator sim{7};
  net::Topology topo{sim};
  NodeId main, edge1, edge2;
  net::Network net{sim, topo, Duration::zero()};
  net::RmiTransport rmi{net, quiet_rmi()};
  std::unique_ptr<db::Database> db;
  Application app{"testapp"};

  World() {
    main = topo.add_node("main", net::NodeRole::kAppServer);
    edge1 = topo.add_node("edge1", net::NodeRole::kAppServer);
    edge2 = topo.add_node("edge2", net::NodeRole::kAppServer);
    topo.add_link(main, edge1, ms(100), 100e6);
    topo.add_link(main, edge2, ms(100), 100e6);
    db = std::make_unique<db::Database>(topo, main, zero_db_cost());
    auto& items = db->create_table(
        "item", {{"id", db::ColumnType::kInt},
                 {"product_id", db::ColumnType::kInt},
                 {"price", db::ColumnType::kReal}});
    for (std::int64_t i = 0; i < 20; ++i) {
      items.insert(Row{i, i % 4, 10.0 + static_cast<double>(i)});
    }
    items.create_index("product_id");

    auto& facade = app.define("Facade", ComponentKind::kStatelessSessionBean);
    facade.method({.name = "getItem",
                   .cpu = Duration::zero(),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto row = co_await ctx.read_entity("Item", ctx.arg_int(0));
                     if (row) ctx.result.push_back(std::move(row));
                   }});
    facade.method({.name = "list",
                   .cpu = Duration::zero(),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto res = co_await ctx.cached_query(
                         Query::finder("item", "product_id", ctx.arg(0)));
                     ctx.result = std::move(res.rows);
                   }});
    facade.method({.name = "buy",
                   .cpu = Duration::zero(),
                   .body = [](CallContext& ctx) -> Task<void> {
                     std::vector<Query> affected{
                         Query::finder("item", "product_id", std::int64_t{0})};
                     co_await ctx.write_entity("Item", ctx.arg_int(0), "price", 99.0,
                                               std::move(affected));
                   }});

    auto& servlet = app.define("Servlet", ComponentKind::kServlet);
    servlet.method({.name = "page",
                    .cpu = Duration::zero(),
                    .body = [](CallContext& ctx) -> Task<void> {
                      auto res = co_await ctx.call("Facade", "getItem", ctx.arg(0));
                      ctx.result = std::move(res.rows);
                    }});

    auto& local_bean = app.define("LocalHelper", ComponentKind::kJavaBean);
    local_bean.local_interface_only();
    local_bean.method({.name = "help", .cpu = Duration::zero()});
  }

  DeploymentPlan base_plan() {
    DeploymentPlan plan;
    plan.set_main_server(main);
    plan.add_edge_server(edge1);
    plan.add_edge_server(edge2);
    plan.place("Facade", main);
    plan.place("Servlet", main);
    plan.place("LocalHelper", main);
    return plan;
  }

  Runtime& make_runtime(DeploymentPlan plan, RuntimeConfig cfg = zero_cost_runtime()) {
    rt_holder = std::make_unique<Runtime>(sim, topo, net, rmi, *db, app, std::move(plan), cfg);
    rt_holder->bind_entity("Item", "item");
    return *rt_holder;
  }

  std::unique_ptr<Runtime> rt_holder;

  /// Runs `t` to completion (draining any background activity it spawned)
  /// and returns the time *the task itself* took — not the drain time.
  Duration timed(Task<void> t) {
    SimTime start = sim.now();
    SimTime done = start;
    sim.spawn([](Task<void> t, Simulator& s, SimTime& done) -> Task<void> {
      co_await std::move(t);
      done = s.now();
    }(std::move(t), sim, done));
    sim.run_until();
    return done - start;
  }
};

// --- deployment plan ---------------------------------------------------------

TEST(DeploymentPlanTest, PlacementAndResolution) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.place("Servlet", w.edge1);
  EXPECT_EQ(plan.primary("Servlet"), w.main);
  EXPECT_TRUE(plan.is_deployed_at("Servlet", w.edge1));
  EXPECT_FALSE(plan.is_deployed_at("Servlet", w.edge2));
  EXPECT_EQ(plan.resolve("Servlet", w.edge1), w.edge1);  // prefer co-located
  EXPECT_EQ(plan.resolve("Servlet", w.edge2), w.main);   // fall back to primary
  EXPECT_THROW((void)plan.nodes_of("Ghost"), std::invalid_argument);
}

TEST(DeploymentPlanTest, DuplicatePlacementIgnored) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.place("Facade", w.main);
  EXPECT_EQ(plan.nodes_of("Facade").size(), 1u);
}

TEST(DeploymentPlanTest, UpdateModeFollowsFeatures) {
  DeploymentPlan plan;
  EXPECT_EQ(plan.update_mode(), UpdateMode::kNone);
  plan.enable(Feature::kStatefulComponentCaching);
  EXPECT_EQ(plan.update_mode(), UpdateMode::kBlockingPush);
  plan.enable(Feature::kAsyncUpdates);
  EXPECT_EQ(plan.update_mode(), UpdateMode::kAsyncPush);
  plan.disable(Feature::kAsyncUpdates);
  EXPECT_EQ(plan.update_mode(), UpdateMode::kBlockingPush);
}

TEST(DeploymentPlanTest, DescribeMentionsFeaturesAndPlacement) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kRemoteFacade);
  std::string desc = plan.describe();
  EXPECT_NE(desc.find("remote-facade"), std::string::npos);
  EXPECT_NE(desc.find("Facade"), std::string::npos);
}

// --- invocation ---------------------------------------------------------------

TEST(RuntimeTest, LocalInvocationReturnsData) {
  World w;
  Runtime& rt = w.make_runtime(w.base_plan());
  CallResult out;
  Duration d = w.timed([](Runtime& rt, World& w, CallResult& out) -> Task<void> {
    out = co_await rt.invoke(w.main, "Servlet", "page", std::int64_t{3});
  }(rt, w, out));
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(db::as_int((*out.rows[0])[0]), 3);
  EXPECT_LT(d.as_millis(), 1.0);  // everything local, zero-cost config
}

TEST(RuntimeTest, RemoteInvocationPaysWanRoundTrip) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStubCaching);
  Runtime& rt = w.make_runtime(std::move(plan));
  CallResult out;
  // First call from edge1: stub exchange (1 RTT) + call (1 RTT).
  Duration d1 = w.timed([](Runtime& rt, World& w, CallResult& out) -> Task<void> {
    out = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{1});
  }(rt, w, out));
  EXPECT_NEAR(d1.as_millis(), 400.0, 2.0);
  // Second call: stub cached -> one round trip.
  Duration d2 = w.timed([](Runtime& rt, World& w, CallResult& out) -> Task<void> {
    out = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{1});
  }(rt, w, out));
  EXPECT_NEAR(d2.as_millis(), 200.0, 2.0);
  EXPECT_EQ(rt.rmi().stub_exchanges(), 1u);
}

TEST(RuntimeTest, StaleViewsReachTheAuthorityInOneOrTwoRmiHops) {
  // Echo moves main -> edge1 with no participants: until notify_delay
  // passes, every view still routes to main, the retired site.
  World w;
  std::vector<NodeId> ran_at;
  w.app.define("Echo", ComponentKind::kStatelessSessionBean)
      .method({.name = "ping",
               .cpu = Duration::zero(),
               .body = [&ran_at](CallContext& ctx) -> Task<void> {
                 ran_at.push_back(ctx.node());
                 co_return;
               }});
  DeploymentPlan plan = w.base_plan();
  plan.place("Echo", w.main);
  plan.enable(Feature::kStubCaching);
  Runtime& rt = w.make_runtime(std::move(plan));
  BindingTable bindings{rt.plan()};
  bindings.flip("Echo", {w.edge1}, w.sim.now(), sim::sec(10), {});
  rt.set_binding_table(&bindings);
  auto ping_from = [&](NodeId caller) {
    return w.timed([](Runtime& rt, NodeId caller) -> Task<void> {
      (void)co_await rt.invoke(caller, "Echo", "ping");
    }(rt, caller));
  };

  // The old site's own call dispatches locally to itself, then goes
  // straight to the authority: one RMI hop.
  const Duration own = ping_from(w.main);
  EXPECT_NEAR(own.as_millis(), 200.0, 2.0);
  EXPECT_EQ(rt.rmi().remote_calls(), 1u);
  EXPECT_EQ(rt.rmi().stub_exchanges(), 0u);
  EXPECT_EQ(rt.forwarded_calls(), 1u);

  // Another edge's stale view picks main: a stub exchange with main, then
  // main relays to edge1 — two RMI hops.
  const Duration relayed = ping_from(w.edge2);
  EXPECT_NEAR(relayed.as_millis(), 600.0, 2.0);
  EXPECT_EQ(rt.rmi().remote_calls(), 3u);
  EXPECT_EQ(rt.rmi().stub_exchanges(), 1u);
  EXPECT_EQ(rt.forwarded_calls(), 2u);
  EXPECT_EQ(rt.late_stragglers(), 0u);
  EXPECT_EQ(ran_at, (std::vector<NodeId>{w.edge1, w.edge1}));
}

TEST(RuntimeTest, WithoutStubCachingEveryCallPaysLookup) {
  World w;
  Runtime& rt = w.make_runtime(w.base_plan());  // kStubCaching off
  for (int i = 0; i < 3; ++i) {
    Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
      (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{1});
    }(rt, w));
    EXPECT_NEAR(d.as_millis(), 400.0, 2.0);
  }
  EXPECT_EQ(rt.rmi().stub_exchanges(), 3u);
}

TEST(RuntimeTest, CoLocatedReplicaPreferred) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.place("Servlet", w.edge1);
  plan.enable(Feature::kStubCaching);
  Runtime& rt = w.make_runtime(std::move(plan));
  // Servlet at edge1 runs locally; its Facade call crosses the WAN.
  std::uint64_t before = w.net.wan_messages_sent();
  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Servlet", "page", std::int64_t{1});
  }(rt, w));
  // stub exchange (2 one-way messages) + call (2) = 4 WAN messages.
  EXPECT_EQ(w.net.wan_messages_sent() - before, 4u);
}

TEST(RuntimeTest, LocalOnlyComponentRejectsRemoteCall) {
  World w;
  Runtime& rt = w.make_runtime(w.base_plan());
  bool threw = false;
  w.sim.spawn([](Runtime& rt, World& w, bool& threw) -> Task<void> {
    try {
      (void)co_await rt.invoke(w.edge1, "LocalHelper", "help", {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  }(rt, w, threw));
  w.sim.run_until();
  EXPECT_TRUE(threw);
}

TEST(RuntimeTest, MethodCpuAndLatencyCharged) {
  World w;
  auto& slow = w.app.define("Slow", ComponentKind::kStatelessSessionBean);
  slow.method({.name = "work", .cpu = ms(5), .latency = ms(7)});
  DeploymentPlan plan = w.base_plan();
  plan.place("Slow", w.main);
  Runtime& rt = w.make_runtime(std::move(plan));
  Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Slow", "work", {});
  }(rt, w));
  EXPECT_NEAR(d.as_millis(), 12.0, 0.1);
}

TEST(RuntimeTest, UnknownComponentOrMethodThrows) {
  World w;
  (void)w.make_runtime(w.base_plan());
  EXPECT_THROW((void)w.app.component("Nope"), std::invalid_argument);
  EXPECT_THROW((void)w.app.component("Facade").find_method("nope"), std::invalid_argument);
}

// --- read-only entity caching (§4.3) ------------------------------------------

TEST(RuntimeTest, RoReplicaMissPullsThenHitsLocally) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.place("Facade", w.edge1);  // edge Catalog replica
  Runtime& rt = w.make_runtime(std::move(plan));

  // Miss: pull refresh across the WAN (~200ms).
  Duration d1 = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{5});
  }(rt, w));
  EXPECT_NEAR(d1.as_millis(), 200.0, 2.0);
  EXPECT_EQ(rt.ro_cache(w.edge1, "Item").misses(), 1u);

  // Hit: served locally.
  Duration d2 = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{5});
  }(rt, w));
  EXPECT_LT(d2.as_millis(), 1.0);
  EXPECT_EQ(rt.ro_cache(w.edge1, "Item").hits(), 1u);
}

TEST(RuntimeTest, ReadMissingEntityReturnsNullopt) {
  World w;
  DeploymentPlan plan = w.base_plan();
  Runtime& rt = w.make_runtime(std::move(plan));
  CallResult out;
  (void)w.timed([](Runtime& rt, World& w, CallResult& out) -> Task<void> {
    out = co_await rt.invoke(w.main, "Facade", "getItem", std::int64_t{12345});
  }(rt, w, out));
  EXPECT_TRUE(out.rows.empty());
}

TEST(RuntimeTest, BlockingPushKeepsRoReplicasFresh) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.replicate_read_only("Item", w.edge2);
  plan.place("Facade", w.edge1);
  plan.place("Facade", w.edge2);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    // Warm both edge caches.
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    (void)co_await rt.invoke(w.edge2, "Facade", "getItem", std::int64_t{2});
    // Write at the main server; blocking push must update both replicas.
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
    // Reads after the committed write observe the new value, locally.
    CallResult r1 = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    CallResult r2 = co_await rt.invoke(w.edge2, "Facade", "getItem", std::int64_t{2});
    EXPECT_DOUBLE_EQ(db::as_real(r1.rows.at(0)->at(2)), 99.0);
    EXPECT_DOUBLE_EQ(db::as_real(r2.rows.at(0)->at(2)), 99.0);
  }(rt, w));

  EXPECT_EQ(rt.blocking_pushes(), 2u);  // one bulk call per edge
  // Zero staleness (§4.3): no read ever observed an outdated version.
  EXPECT_EQ(rt.consistency().stale_reads(), 0u);
}

TEST(RuntimeTest, BlockingPushCostsSequentialWanRoundTrips) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.replicate_read_only("Item", w.edge2);
  Runtime& rt = w.make_runtime(std::move(plan));
  Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
  }(rt, w));
  // Two sequential pushes across the WAN: ~2 x 200ms.
  EXPECT_NEAR(d.as_millis(), 400.0, 3.0);
}

// --- query caching (§4.4) -------------------------------------------------------

TEST(RuntimeTest, QueryCacheMissFillsThenServesLocally) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kStubCaching);
  plan.add_query_cache(w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  Duration d1 = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{1});
  }(rt, w));
  EXPECT_NEAR(d1.as_millis(), 200.0, 2.0);  // miss -> façade RMI

  CallResult out;
  Duration d2 = w.timed([](Runtime& rt, World& w, CallResult& out) -> Task<void> {
    out = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{1});
  }(rt, w, out));
  EXPECT_LT(d2.as_millis(), 1.0);  // hit -> local
  EXPECT_EQ(out.rows.size(), 5u);
  EXPECT_EQ(rt.query_cache(w.edge1).hits(), 1u);
}

TEST(RuntimeTest, QueryCachePushRefreshOnWrite) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kStubCaching);
  plan.set_query_refresh(QueryRefreshMode::kPush);
  plan.add_query_cache(w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});  // warm cache
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{0});    // invalidating write
    // Cached list must reflect the new price without leaving the edge.
    CallResult fresh = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    bool found = false;
    for (const auto& row : fresh.rows) {
      if (db::as_int((*row)[0]) == 0) {
        EXPECT_DOUBLE_EQ(db::as_real((*row)[2]), 99.0);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }(rt, w));
  EXPECT_EQ(rt.query_cache(w.edge1).pushes_applied(), 1u);
  EXPECT_EQ(rt.consistency().stale_reads(), 0u);
}

// --- version isolation: holders keep the row version they were given --------
//
// Reads share immutable row versions with the master table. A write the
// replicas have not been told about (made straight on the table here, like a
// push still in flight) must not reach what a replica, a cached result or a
// migration snapshot already holds.

double price_of(const db::RowRef& row) { return db::as_real((*row)[2]); }

/// The price of row `pk` in a result (-1 when absent): a write moves its row
/// to the end of its index bucket, so finder results are read by pk.
double price_in(const CallResult& r, std::int64_t pk) {
  for (const db::RowRef& row : r.rows) {
    if (db::as_int((*row)[0]) == pk) return price_of(row);
  }
  return -1.0;
}

TEST(RuntimeTest, ReplicaKeepsItsVersionUntilRefreshOrPush) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));
  db::Table& items = w.db->table("item");

  (void)w.timed([](Runtime& rt, World& w, db::Table& items) -> Task<void> {
    CallResult filled = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    items.update_column(2, "price", 55.0);
    CallResult held = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    EXPECT_DOUBLE_EQ(price_of(filled.rows.at(0)), 12.0);
    EXPECT_DOUBLE_EQ(price_of(held.rows.at(0)), 12.0);  // the replica's version
    EXPECT_DOUBLE_EQ(price_of(rt.ro_cache(w.edge1, "Item").get(2)->row), 12.0);

    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});  // pushes 99
    CallResult pushed = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    EXPECT_DOUBLE_EQ(price_of(pushed.rows.at(0)), 99.0);

    items.update_column(2, "price", 77.0);
    CallResult still = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    EXPECT_DOUBLE_EQ(price_of(still.rows.at(0)), 99.0);
    rt.ro_cache(w.edge1, "Item").invalidate(2);  // the next read refreshes
    CallResult refreshed = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    EXPECT_DOUBLE_EQ(price_of(refreshed.rows.at(0)), 77.0);
  }(rt, w, items));
  EXPECT_EQ(rt.ro_cache(w.edge1, "Item").pushes_applied(), 1u);
}

TEST(RuntimeTest, QueryCacheEntriesKeepTheirRowsUntilInvalidationOrPush) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kStubCaching);
  plan.set_query_refresh(QueryRefreshMode::kPush);
  plan.add_query_cache(w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));
  db::Table& items = w.db->table("item");

  // Product 0's finder returns pks 0, 4, 8, 12, 16 (prices 10, 14, ...).
  (void)w.timed([](Runtime& rt, World& w, db::Table& items) -> Task<void> {
    CallResult filled = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    items.update_column(4, "price", 55.0);
    CallResult hit = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    EXPECT_DOUBLE_EQ(price_in(filled, 4), 14.0);
    EXPECT_DOUBLE_EQ(price_in(hit, 4), 14.0);  // the filled entry's rows

    // The write's pushed refresh re-executes next to the data: both changes.
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{0});
    CallResult pushed = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    EXPECT_DOUBLE_EQ(price_in(pushed, 0), 99.0);
    EXPECT_DOUBLE_EQ(price_in(pushed, 4), 55.0);

    items.update_column(0, "price", 1.0);
    CallResult kept = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    EXPECT_DOUBLE_EQ(price_in(kept, 0), 99.0);  // the pushed rows
    rt.query_cache(w.edge1).invalidate(Query::finder("item", "product_id", std::int64_t{0})
                                           .cache_key());
    CallResult refetched = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    EXPECT_DOUBLE_EQ(price_in(refetched, 0), 1.0);
  }(rt, w, items));
  EXPECT_EQ(rt.query_cache(w.edge1).pushes_applied(), 1u);
}

TEST(RuntimeTest, ReplicaTransferShipsTheSnapshotVersion) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    // The master write lands while the snapshot is on the wire (~200 ms).
    w.sim.spawn([](World& w) -> Task<void> {
      co_await w.sim.wait(ms(50));
      w.db->table("item").update_column(2, "price", 55.0);
    }(w));
    std::vector<std::string> entities{"Item"};  // named: GCC 12 and braced lists in co_await
    const std::uint64_t shipped =
        co_await rt.transfer_replica_state(w.edge1, w.edge2, std::move(entities), false);
    EXPECT_EQ(shipped, 1u);
  }(rt, w));
  EXPECT_DOUBLE_EQ(price_of(w.db->table("item").get(2)), 55.0);
  const cache::ReadOnlyCache::Entry* moved = rt.ro_cache(w.edge2, "Item").get(2);
  ASSERT_NE(moved, nullptr);
  EXPECT_DOUBLE_EQ(price_of(moved->row), 12.0);
  EXPECT_DOUBLE_EQ(price_of(rt.ro_cache(w.edge1, "Item").get(2)->row), 12.0);
}

TEST(RuntimeTest, QueryCachePullRefreshInvalidatesThenReFetches) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kStubCaching);
  plan.set_query_refresh(QueryRefreshMode::kPull);
  plan.add_query_cache(w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{0});
  }(rt, w));
  EXPECT_FALSE(rt.query_cache(w.edge1).contains(
      Query::finder("item", "product_id", std::int64_t{0}).cache_key()));

  // Next read re-executes at the main server (WAN) and re-fills.
  Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{0});
  }(rt, w));
  EXPECT_NEAR(d.as_millis(), 200.0, 2.0);
}

// --- asynchronous updates (§4.5) -------------------------------------------------

TEST(RuntimeTest, AsyncUpdatesDoNotBlockTheWriter) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kAsyncUpdates);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.replicate_read_only("Item", w.edge2);
  plan.add_query_cache(w.edge1);
  plan.add_query_cache(w.edge2);
  Runtime& rt = w.make_runtime(std::move(plan));

  Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
  }(rt, w));
  EXPECT_LT(d.as_millis(), 5.0);  // writer does not wait for WAN propagation
  EXPECT_EQ(rt.async_publishes(), 1u);
  EXPECT_TRUE(rt.updates_quiescent());  // run_until drained the deliveries
}

TEST(RuntimeTest, AsyncUpdatesEventuallyReachReplicas) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kAsyncUpdates);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});  // warm
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
  }(rt, w));
  // After the simulator drained everything, the replica holds the new value.
  auto entry = rt.ro_cache(w.edge1, "Item").get(2);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(db::as_real((*entry->row)[2]), 99.0);
}

TEST(RuntimeTest, AsyncUpdateWindowAllowsStaleReads) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kAsyncUpdates);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  w.sim.spawn([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});  // warm
    (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
    // Read immediately after commit, before the 100ms propagation lands.
    CallResult r = co_await rt.invoke(w.edge1, "Facade", "getItem", std::int64_t{2});
    EXPECT_NE(db::as_real(r.rows.at(0)->at(2)), 99.0);  // stale value visible
  }(rt, w));
  w.sim.run_until();
  EXPECT_GE(rt.consistency().stale_reads(), 1u);
}

// --- write routing & locking ------------------------------------------------------

TEST(RuntimeTest, WriteFromEdgeRoutesThroughFacade) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStubCaching);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));
  Duration d = w.timed([](Runtime& rt, World& w) -> Task<void> {
    // Facade resolves to edge1 locally; the write inside hops to main.
    (void)co_await rt.invoke(w.edge1, "Facade", "buy", std::int64_t{1});
  }(rt, w));
  EXPECT_NEAR(d.as_millis(), 200.0, 2.0);
  EXPECT_DOUBLE_EQ(db::as_real((*w.db->table("item").get(1))[2]), 99.0);
}

TEST(RuntimeTest, ConcurrentWritesToSameEntitySerialize) {
  World w;
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kStubCaching);
  plan.replicate_read_only("Item", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));
  // Each write holds the lock for one WAN push (~200ms); the second write
  // to the SAME item must wait, while a write to ANOTHER item proceeds.
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    w.sim.spawn([](Runtime& rt, World& w, std::vector<double>& done) -> Task<void> {
      (void)co_await rt.invoke(w.main, "Facade", "buy", std::int64_t{2});
      done.push_back(w.sim.now().as_millis());
    }(rt, w, done));
  }
  w.sim.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 200.0, 3.0);
  EXPECT_NEAR(done[1], 400.0, 5.0);
  EXPECT_EQ(rt.locks().contended_acquisitions(), 1u);
}

TEST(RuntimeTest, InsertPropagatesToQueryCaches) {
  World w;
  auto& facade = const_cast<ComponentDef&>(w.app.component("Facade"));
  facade.method({.name = "addItem",
                 .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   std::vector<Query> affected{
                       Query::finder("item", "product_id", std::int64_t{1})};
                   Row row{ctx.arg_int(0), std::int64_t{1}, 5.0};
                   co_await ctx.insert_row("Item", std::move(row), std::move(affected));
                 }});
  DeploymentPlan plan = w.base_plan();
  plan.enable(Feature::kStatefulComponentCaching);
  plan.enable(Feature::kQueryCaching);
  plan.enable(Feature::kStubCaching);
  plan.set_query_refresh(QueryRefreshMode::kPush);
  plan.add_query_cache(w.edge1);
  plan.place("Facade", w.edge1);
  Runtime& rt = w.make_runtime(std::move(plan));

  (void)w.timed([](Runtime& rt, World& w) -> Task<void> {
    CallResult before = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{1});
    EXPECT_EQ(before.rows.size(), 5u);
    (void)co_await rt.invoke(w.main, "Facade", "addItem", std::int64_t{500});
    CallResult after = co_await rt.invoke(w.edge1, "Facade", "list", std::int64_t{1});
    EXPECT_EQ(after.rows.size(), 6u);  // new row pushed into the edge cache
  }(rt, w));
}

TEST(RuntimeTest, UnboundEntityThrows) {
  World w;
  Runtime& rt = w.make_runtime(w.base_plan());
  EXPECT_THROW((void)rt.entity_table("Ghost"), std::invalid_argument);
}

// --- stub cache ---------------------------------------------------------------------

TEST(StubCacheTest, FirstUseMissesThenHits) {
  constexpr ComponentId kFacade = 0;
  constexpr ComponentId kOther = 1;
  StubCache sc;
  EXPECT_TRUE(sc.need_stub_exchange(NodeId{1}, kFacade));
  EXPECT_FALSE(sc.need_stub_exchange(NodeId{1}, kFacade));
  EXPECT_TRUE(sc.need_stub_exchange(NodeId{2}, kFacade));   // per-node
  EXPECT_TRUE(sc.need_stub_exchange(NodeId{1}, kOther));    // per-component
  EXPECT_EQ(sc.hits(), 1u);
  EXPECT_EQ(sc.misses(), 3u);
  sc.clear();
  EXPECT_TRUE(sc.need_stub_exchange(NodeId{1}, kFacade));
}

// --- lock manager --------------------------------------------------------------------

TEST(LockManagerTest, DistinctKeysDoNotContend) {
  Simulator sim;
  LockManager lm{sim};
  std::vector<double> done;
  for (std::int64_t pk : {1, 2}) {
    sim.spawn([](Simulator& s, LockManager& lm, std::int64_t pk,
                 std::vector<double>& done) -> Task<void> {
      co_await lm.acquire({"Item", pk});
      co_await s.wait(ms(10));
      lm.release({"Item", pk});
      done.push_back(s.now().as_millis());
    }(sim, lm, pk, done));
  }
  sim.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_EQ(lm.contended_acquisitions(), 0u);
}

TEST(LockManagerTest, EvictsUnlockedUncontendedMutexesOnRelease) {
  Simulator sim;
  LockManager lm{sim};
  // A benchmark-scale key stream must not grow the mutex table: each
  // uncontended acquire/release round-trip evicts its entry.
  for (std::int64_t pk = 0; pk < 100; ++pk) {
    sim.spawn([](Simulator& s, LockManager& lm, std::int64_t pk) -> Task<void> {
      co_await lm.acquire({"Item", pk});
      co_await s.wait(ms(1));
      lm.release({"Item", pk});
    }(sim, lm, pk));
  }
  sim.run_until();
  EXPECT_EQ(lm.tracked_mutexes(), 0u);
  EXPECT_EQ(lm.held_count(), 0u);
  EXPECT_EQ(lm.acquisitions(), 100u);
}

TEST(LockManagerTest, ContendedMutexSurvivesReleaseUntilLastHolder) {
  Simulator sim;
  LockManager lm{sim};
  const LockManager::Key key{"Item", 1};
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, LockManager& lm, LockManager::Key k,
                 std::vector<double>& done) -> Task<void> {
      co_await lm.acquire(k);
      co_await s.wait(ms(10));
      lm.release(k);
      done.push_back(s.now().as_millis());
    }(sim, lm, key, done));
  }
  sim.run_for(ms(15));
  // Mid-contention: the first release handed the slot to a queued waiter, so
  // the entry must survive eviction.
  EXPECT_EQ(lm.tracked_mutexes(), 1u);
  EXPECT_EQ(lm.held_count(), 1u);
  EXPECT_TRUE(lm.is_locked(key));
  sim.run_until();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[2], 30.0);  // strict serialization preserved
  EXPECT_EQ(lm.tracked_mutexes(), 0u);
  EXPECT_FALSE(lm.is_locked(key));
}

TEST(LockManagerTest, ConstAccessorsWorkOnConstManager) {
  Simulator sim;
  LockManager lm{sim};
  const LockManager& clm = lm;
  EXPECT_FALSE(clm.is_locked({"Item", 1}));
  EXPECT_EQ(clm.held_count(), 0u);
  EXPECT_EQ(clm.tracked_mutexes(), 0u);
}

TEST(LockManagerTest, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  LockManager lm{sim};
  EXPECT_THROW(lm.release({"Item", 42}), std::logic_error);
}

}  // namespace
}  // namespace mutsvc::comp
