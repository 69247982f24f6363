// Deeper container-runtime coverage: delta encoding, update-path transport,
// interaction profiling, transaction batching, argument handling.
#include <gtest/gtest.h>

#include "component/deployment.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "core/placement/graph.hpp"
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
using sim::Simulator;
using sim::Task;

struct World {
  Simulator sim{7};
  net::Topology topo{sim};
  NodeId main, edge1, edge2;
  net::Network net{sim, topo, Duration::zero()};
  std::unique_ptr<net::RmiTransport> rmi;
  std::unique_ptr<db::Database> db;
  comp::Application app{"extra"};
  std::unique_ptr<Runtime> rt;

  explicit World(double extra_rtt = 0.0) {
    main = topo.add_node("main", net::NodeRole::kAppServer);
    edge1 = topo.add_node("edge1", net::NodeRole::kAppServer);
    edge2 = topo.add_node("edge2", net::NodeRole::kAppServer);
    topo.add_link(main, edge1, ms(100), 100e6);
    topo.add_link(main, edge2, ms(100), 100e6);
    net::RmiConfig rcfg;
    rcfg.extra_rtt_prob = extra_rtt;
    rcfg.dgc_traffic_factor = 1.0;
    rmi = std::make_unique<net::RmiTransport>(net, rcfg);
    db = std::make_unique<db::Database>(topo, main);
    auto& items = db->create_table("item", {{"id", db::ColumnType::kInt},
                                            {"name", db::ColumnType::kText},
                                            {"price", db::ColumnType::kReal}});
    for (std::int64_t i = 0; i < 10; ++i) {
      items.insert(Row{i, std::string{"a rather long item description ..."}, 1.0});
    }

    auto& facade = app.define("Facade", comp::ComponentKind::kStatelessSessionBean);
    facade.method({.name = "get",
                   .cpu = Duration::zero(),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto row = co_await ctx.read_entity("Item", ctx.arg_int(0));
                     if (row) ctx.result.push_back(std::move(row));
                   }});
    facade.method({.name = "touchTwo",
                   .cpu = Duration::zero(),
                   .body = [](CallContext& ctx) -> Task<void> {
                     // Two writes in one method = one transaction = one
                     // bulk push per edge.
                     co_await ctx.write_entity("Item", 1, "price", 2.0);
                     co_await ctx.write_entity("Item", 2, "price", 2.0);
                   }});
  }

  Runtime& start(DeploymentPlan plan, RuntimeConfig cfg = {}) {
    cfg.local_dispatch = cfg.entity_access = cfg.cache_access = Duration::zero();
    cfg.apply_update = cfg.mdb_dispatch = cfg.jms_accept = Duration::zero();
    rt = std::make_unique<Runtime>(sim, topo, net, *rmi, *db, app, std::move(plan), cfg);
    rt->bind_entity("Item", "item");
    return *rt;
  }

  DeploymentPlan caching_plan() {
    DeploymentPlan plan;
    plan.set_main_server(main);
    plan.add_edge_server(edge1);
    plan.add_edge_server(edge2);
    plan.place("Facade", main);
    plan.place("Facade", edge1);
    plan.place("Facade", edge2);
    plan.enable(Feature::kStatefulComponentCaching);
    plan.enable(Feature::kStubCaching);
    plan.replicate_read_only("Item", edge1);
    plan.replicate_read_only("Item", edge2);
    return plan;
  }

  void drain(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run_until();
  }
};

TEST(RuntimeExtraTest, DeltaEncodingShrinksPushTraffic) {
  auto push_bytes = [](bool delta) {
    World w;
    RuntimeConfig cfg;
    cfg.delta_encoding = delta;
    Runtime& rt = w.start(w.caching_plan(), cfg);
    w.net.reset_counters();
    w.drain([](Runtime& rt, World& w) -> Task<void> {
      (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {});
    }(rt, w));
    return w.net.wan_bytes_sent();
  };
  const auto full = push_bytes(false);
  const auto delta = push_bytes(true);
  EXPECT_GT(full, 0);
  // §4.3: "transferring only the changes instead of the entire bean's
  // state" must reduce wide-area bytes.
  EXPECT_LT(delta, full);
}

TEST(RuntimeExtraTest, OneTransactionMeansOnePushPerEdge) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {});
  }(rt, w));
  // Two entity writes, but exactly one bulk call per edge (§4.4).
  EXPECT_EQ(rt.blocking_pushes(), 2u);
}

TEST(RuntimeExtraTest, PushPathSkipsRmiExtraRoundTrips) {
  // Even with a flaky base RMI (always one extra RTT), the dedicated
  // updater transport pays exactly one round trip per push: the write
  // completes at 2 x 200ms, deterministically.
  World w{/*extra_rtt=*/1.0};
  Runtime& rt = w.start(w.caching_plan());
  sim::SimTime done;
  w.drain([](Runtime& rt, World& w, sim::SimTime& done) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {});
    done = w.sim.now();
  }(rt, w, done));
  EXPECT_NEAR(done.as_millis(), 400.0, 5.0);  // + per-hop router overheads
  EXPECT_EQ(rt.rmi().extra_round_trips(), 0u);  // base transport unused here
}

TEST(RuntimeExtraTest, InteractionProfileRecordsCallsAndWrites) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "get", std::int64_t{3});
    (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {});
  }(rt, w));

  const auto& profile = rt.interaction_profile();
  const auto client_edge = profile.find({"__client__", "Facade"});
  ASSERT_NE(client_edge, profile.end());
  EXPECT_EQ(client_edge->second.calls, 2u);

  const auto entity_edge = profile.find({"Facade", "Item"});
  ASSERT_NE(entity_edge, profile.end());
  EXPECT_EQ(entity_edge->second.calls, 3u);   // 1 read + 2 writes
  EXPECT_EQ(entity_edge->second.writes, 2u);

  rt.reset_interaction_profile();
  EXPECT_TRUE(rt.interaction_profile().empty());
}

TEST(RuntimeExtraTest, VariadicInvokeAcceptsMixedTypes) {
  World w;
  auto& mixer = w.app.define("Mixer", comp::ComponentKind::kStatelessSessionBean);
  mixer.method({.name = "mix",
                .cpu = Duration::zero(),
                .body = [](CallContext& ctx) -> Task<void> {
                  EXPECT_EQ(ctx.arg_int(0), 7);
                  EXPECT_DOUBLE_EQ(db::as_real(ctx.arg(1)), 2.5);
                  EXPECT_EQ(ctx.arg_text(2), "hello");
                  EXPECT_EQ(ctx.arg_count(), 3u);
                  EXPECT_THROW((void)ctx.arg(3), std::out_of_range);
                  co_return;
                }});
  DeploymentPlan plan = w.caching_plan();
  plan.place("Mixer", w.main);
  Runtime& rt = w.start(std::move(plan));
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Mixer", "mix", std::int64_t{7}, 2.5,
                             std::string{"hello"});
  }(rt, w));
}

TEST(RuntimeExtraTest, CallContextCpuConsumesHostNode) {
  World w;
  auto& burner = w.app.define("Burner", comp::ComponentKind::kStatelessSessionBean);
  burner.method({.name = "burn",
                 .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> { co_await ctx.cpu(ms(30)); }});
  DeploymentPlan plan = w.caching_plan();
  plan.place("Burner", w.main);
  Runtime& rt = w.start(std::move(plan));
  w.topo.node(w.main).cpu->reset_utilization();
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Burner", "burn", {});
  }(rt, w));
  EXPECT_NEAR(w.sim.now().as_millis(), 30.0, 0.5);
  EXPECT_GT(w.topo.node(w.main).cpu->utilization(), 0.4);  // 1 of 2 CPUs busy
}

TEST(TraceTest, SpanSumMatchesEndToEndDuration) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  TraceSink sink;
  sim::SimTime t0 = w.sim.now();
  sim::SimTime done;
  w.drain([](Runtime& rt, World& w, TraceSink& sink, sim::SimTime& done) -> Task<void> {
    // Remote read with a cold replica: cache miss -> pull RMI + JDBC.
    std::vector<db::Value> args{db::Value{std::int64_t{3}}};
    (void)co_await rt.invoke(w.edge1, "Facade", "get", std::move(args), &sink);
    done = w.sim.now();
  }(rt, w, sink, done));
  const double total = (done - t0).as_millis();
  EXPECT_GT(total, 190.0);  // one WAN round trip
  // The decomposition accounts for exactly all of the elapsed time: the
  // categories are exclusive and additive by construction.
  EXPECT_EQ(sink.sum(), done - t0);
  EXPECT_GT(sink.total(SpanKind::kRmiWire).as_millis(), 150.0);
  EXPECT_GT(sink.total(SpanKind::kJdbc).count_micros(), 0);
}

TEST(TraceTest, WarmReplicaReadIsCacheOnly) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.edge1, "Facade", "get", std::int64_t{3});  // warm
  }(rt, w));
  TraceSink sink;
  w.drain([](Runtime& rt, World& w, TraceSink& sink) -> Task<void> {
    std::vector<db::Value> args{db::Value{std::int64_t{3}}};
    (void)co_await rt.invoke(w.edge1, "Facade", "get", std::move(args), &sink);
  }(rt, w, sink));
  EXPECT_EQ(sink.total(SpanKind::kRmiWire), sim::Duration::zero());
  EXPECT_EQ(sink.total(SpanKind::kJdbc), sim::Duration::zero());
}

TEST(TraceTest, BlockingWriteShowsPushTime) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  TraceSink sink;
  w.drain([](Runtime& rt, World& w, TraceSink& sink) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {}, &sink);
  }(rt, w, sink));
  // Two sequential edge pushes ~= 400 ms in the push category.
  EXPECT_NEAR(sink.total(SpanKind::kPush).as_millis(), 400.0, 5.0);
  EXPECT_GT(sink.total(SpanKind::kJdbc).count_micros(), 0);
}

TEST(TraceTest, NullSinkMeansNoTracing) {
  World w;
  Runtime& rt = w.start(w.caching_plan());
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Facade", "touchTwo", {});
  }(rt, w));
  SUCCEED();  // nothing to observe — it must simply not crash or slow down
}

TEST(TraceTest, SinkClearResets) {
  TraceSink sink;
  sink.add(SpanKind::kCpu, ms(5));
  sink.add(SpanKind::kCpu, ms(3));
  EXPECT_EQ(sink.total(SpanKind::kCpu), ms(8));
  EXPECT_EQ(sink.sum(), ms(8));
  sink.clear();
  EXPECT_EQ(sink.sum(), sim::Duration::zero());
}

TEST(RuntimeExtraTest, QueryClassNamesUseAggregateOrTable) {
  World w;
  auto& q = w.app.define("Q", comp::ComponentKind::kStatelessSessionBean);
  q.method({.name = "both",
            .cpu = Duration::zero(),
            .body = [](CallContext& ctx) -> Task<void> {
              (void)co_await ctx.cached_query(Query::finder("item", "id", std::int64_t{1}));
              co_return;
            }});
  DeploymentPlan plan = w.caching_plan();
  plan.place("Q", w.main);
  Runtime& rt = w.start(std::move(plan));
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    (void)co_await rt.invoke(w.main, "Q", "both", {});
  }(rt, w));
  EXPECT_TRUE(rt.interaction_profile().contains({"Q", "query:item"}));
}

// --- names resolve to ids once; the report edges keep name order ---------------

/// Adds "Zeta" (a page) and then "Alpha" (a façade) to the World's app —
/// out of name order — with one method of each kind of interaction: a call
/// through a handle, a call by name, an entity read, a cached query and raw
/// JDBC.
DeploymentPlan define_out_of_order(World& w) {
  auto& zeta = w.app.define("Zeta", ComponentKind::kServlet);
  auto& alpha = w.app.define("Alpha", ComponentKind::kStatelessSessionBean);
  alpha.method({.name = "run",
                .cpu = Duration::zero(),
                .body = [](CallContext& ctx) -> Task<void> {
                  (void)co_await ctx.read_entity("Item", 4);
                  (void)co_await ctx.cached_query(Query::finder("item", "id", std::int64_t{1}));
                  (void)co_await ctx.direct_query(Query::pk_lookup("item", 2));
                }});
  zeta.method({.name = "page",
               .cpu = Duration::zero(),
               .body = [run = w.app.method_ref("Alpha", "run")](CallContext& ctx) -> Task<void> {
                 (void)co_await ctx.call(run, {});
                 (void)co_await ctx.call("Facade", "get", std::int64_t{5});
               }});
  DeploymentPlan plan = w.caching_plan();
  plan.place("Zeta", w.main);
  plan.place("Alpha", w.main);
  return plan;
}

Runtime::InteractionProfile expected_profile() {
  // Method calls carry 200 + 400 bytes, entity reads 256, cached queries
  // 1024, raw JDBC 400; two pages.
  Runtime::InteractionProfile p;
  p[{"Alpha", "Item"}] = {.calls = 2, .writes = 0, .bytes = 512};
  p[{"Alpha", "__database__"}] = {.calls = 2, .writes = 0, .bytes = 800};
  p[{"Alpha", "query:item"}] = {.calls = 2, .writes = 0, .bytes = 2048};
  p[{"Facade", "Item"}] = {.calls = 2, .writes = 0, .bytes = 512};
  p[{"Zeta", "Alpha"}] = {.calls = 2, .writes = 0, .bytes = 1200};
  p[{"Zeta", "Facade"}] = {.calls = 2, .writes = 0, .bytes = 1200};
  p[{"__client__", "Zeta"}] = {.calls = 2, .writes = 0, .bytes = 1200};
  return p;
}

void two_pages(World& w, Runtime& rt) {
  w.drain([](Runtime& rt, World& w) -> Task<void> {
    for (int i = 0; i < 2; ++i) (void)co_await rt.invoke(w.main, "Zeta", "page", {});
  }(rt, w));
}

TEST(NameResolutionTest, IdsFollowNameOrderWhateverTheDefinitionOrder) {
  World w;
  (void)define_out_of_order(w);
  EXPECT_EQ(w.app.component("Alpha").id(), 0u);
  EXPECT_EQ(w.app.component("Facade").id(), 1u);
  EXPECT_EQ(w.app.component("Zeta").id(), 2u);
  EXPECT_EQ(&w.app.component(ComponentId{2}), &w.app.component("Zeta"));
}

TEST(NameResolutionTest, ProfileOfAnOutOfOrderAppIsNameOrderedWithTodaysCounts) {
  World w;
  Runtime& rt = w.start(define_out_of_order(w));
  two_pages(w, rt);
  const Runtime::InteractionProfile got = rt.interaction_profile();
  const Runtime::InteractionProfile want = expected_profile();
  ASSERT_EQ(got.size(), want.size());
  auto g = got.begin();
  for (const auto& [edge, stat] : want) {
    EXPECT_EQ(g->first, edge);  // iteration order is name order
    EXPECT_EQ(g->second.calls, stat.calls) << edge.first << "->" << edge.second;
    EXPECT_EQ(g->second.writes, stat.writes) << edge.first << "->" << edge.second;
    EXPECT_EQ(g->second.bytes, stat.bytes) << edge.first << "->" << edge.second;
    ++g;
  }
}

TEST(NameResolutionTest, PlacementGraphOverTheProfileIsUnchangedAndResetEmptiesIt) {
  World w;
  Runtime& rt = w.start(define_out_of_order(w));
  two_pages(w, rt);
  core::placement::GraphBuildOptions opts;
  opts.window = sim::sec(60);
  const std::string measured =
      core::placement::build_graph(rt.interaction_profile(), w.app, opts).describe();
  const std::string reference =
      core::placement::build_graph(expected_profile(), w.app, opts).describe();
  EXPECT_EQ(measured, reference);

  rt.reset_interaction_profile();
  EXPECT_TRUE(rt.interaction_profile().empty());
  two_pages(w, rt);  // counting resumes from zero
  EXPECT_EQ(rt.interaction_profile().at({"__client__", "Zeta"}).calls, 2u);
}

TEST(NameResolutionTest, UnknownNamesThrowTodaysMessagesAtEveryEntryPoint) {
  World w;
  auto& caller = w.app.define("Caller", ComponentKind::kStatelessSessionBean);
  caller.method({.name = "noComponent", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   (void)co_await ctx.call("Nope", "get", {});
                 }});
  caller.method({.name = "noMethod", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   (void)co_await ctx.call("Facade", "nope", {});
                 }});
  caller.method({.name = "readGhost", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   (void)co_await ctx.read_entity("Ghost", 1);
                 }});
  caller.method({.name = "writeGhost", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   co_await ctx.write_entity("Ghost", 1, "price", 1.0);
                 }});
  caller.method({.name = "insertGhost", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   Row row{std::int64_t{99}};  // named: GCC 12 and braced temporaries
                   co_await ctx.insert_row("Ghost", std::move(row));
                 }});
  caller.method({.name = "unplaced", .cpu = Duration::zero(),
                 .body = [](CallContext& ctx) -> Task<void> {
                   (void)co_await ctx.call("Lonely", "get", {});
                 }});
  w.app.define("Lonely", ComponentKind::kStatelessSessionBean)
      .method({.name = "get", .cpu = Duration::zero()});
  DeploymentPlan plan = w.caching_plan();
  plan.place("Caller", w.main);
  Runtime& rt = w.start(std::move(plan));

  // Resolved before the call starts (by name at the edge, or a handle).
  auto message = [](auto&& f) -> std::string {
    try {
      f();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message([&] { (void)rt.invoke(w.main, "Nope", "get"); }),
            "Application extra: no component Nope");
  EXPECT_EQ(message([&] { (void)rt.invoke(w.main, "Facade", "nope"); }),
            "ComponentDef Facade: no method nope");
  EXPECT_EQ(message([&] { (void)w.app.method_ref("Nope", "get"); }),
            "Application extra: no component Nope");
  EXPECT_EQ(message([&] { (void)w.app.method_ref("Facade", "nope"); }),
            "ComponentDef Facade: no method nope");
  EXPECT_EQ(message([&] { (void)rt.entity_table("Ghost"); }),
            "Runtime: entity not bound to a table: Ghost");

  // Resolved inside a running call tree.
  const std::vector<std::pair<std::string, std::string>> inside = {
      {"noComponent", "Application extra: no component Nope"},
      {"noMethod", "ComponentDef Facade: no method nope"},
      {"readGhost", "Runtime: entity not bound to a table: Ghost"},
      {"writeGhost", "Runtime: entity not bound to a table: Ghost"},
      {"insertGhost", "Runtime: entity not bound to a table: Ghost"},
      {"unplaced", "DeploymentPlan: component not placed: Lonely"},
  };
  for (const auto& [method, want] : inside) {
    std::string got;
    w.drain([](Runtime& rt, World& w, std::string method, std::string& got) -> Task<void> {
      try {
        (void)co_await rt.invoke(w.main, "Caller", method, {});
      } catch (const std::invalid_argument& e) {
        got = e.what();
      }
    }(rt, w, method, got));
    EXPECT_EQ(got, want) << method;
  }
}

}  // namespace
}  // namespace mutsvc::comp
