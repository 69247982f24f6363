// Quickstart: the smallest end-to-end use of the library.
//
// Builds a two-component application (a web front end and a catalog façade
// over one entity), deploys it centralized and then with the paper's design
// rules applied, and compares what a wide-area client experiences.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <iostream>

#include "component/model.hpp"
#include "component/runtime.hpp"
#include "core/design_rules.hpp"
#include "core/testbed.hpp"
#include "db/database.hpp"
#include "net/network.hpp"
#include "net/rmi.hpp"
#include "sim/simulator.hpp"

using namespace mutsvc;
using comp::CallContext;
using sim::Task;

int main() {
  // 1. A simulator and the paper's Figure-2 testbed: one main server
  //    (holding the database), two edge servers across a 100 ms WAN.
  sim::Simulator sim{42};
  net::Topology topo{sim};
  core::TestbedConfig tb_cfg;
  tb_cfg.db_colocated = true;
  core::TestbedNodes nodes = core::build_testbed(topo, tb_cfg);
  net::Network net{sim, topo};
  net::RmiTransport rmi{net};

  // 2. A database with one table.
  db::Database database{topo, nodes.db_node};
  auto& articles = database.create_table(
      "article", {{"id", db::ColumnType::kInt}, {"title", db::ColumnType::kText}});
  for (std::int64_t i = 1; i <= 50; ++i) {
    articles.insert(db::Row{i, "Article #" + std::to_string(i)});
  }

  // 3. The application: a servlet page calling a façade that reads an
  //    entity bean. Bodies are coroutines against the container context.
  comp::Application app{"quickstart"};
  auto& facade = app.define("ArticleFacade", comp::ComponentKind::kStatelessSessionBean);
  facade.method({.name = "get",
                 .cpu = sim::us(400),
                 .body = [](CallContext& ctx) -> Task<void> {
                   auto row = co_await ctx.read_entity("Article", ctx.arg_int(0));
                   if (row) ctx.result.push_back(std::move(row));
                 }});
  auto& web = app.define("Web", comp::ComponentKind::kServlet);
  web.method({.name = "article",
              .cpu = sim::ms(1),
              .latency = sim::ms(5),
              .body = [](CallContext& ctx) -> Task<void> {
                auto res = co_await ctx.call("ArticleFacade", "get", ctx.arg(0));
                ctx.result = std::move(res.rows);
              }});

  // 4. Two deployments: centralized, and with the design rules applied
  //    (web tier at the edges, read-only Article replicas, async updates).
  auto run_once = [&](bool distributed) -> double {
    comp::DeploymentPlan plan;
    plan.set_main_server(nodes.main_server);
    for (auto e : nodes.edge_servers) plan.add_edge_server(e);
    plan.place("ArticleFacade", nodes.main_server);
    plan.place("Web", nodes.main_server);
    if (distributed) {
      plan.enable(comp::Feature::kRemoteFacade);
      plan.enable(comp::Feature::kStubCaching);
      plan.enable(comp::Feature::kStatefulComponentCaching);
      plan.enable(comp::Feature::kAsyncUpdates);
      for (auto e : nodes.edge_servers) {
        plan.place("Web", e);
        plan.place("ArticleFacade", e);
        plan.replicate_read_only("Article", e);
      }
    }
    comp::Runtime rt{sim, topo, net, rmi, database, app, std::move(plan), {}};
    rt.bind_entity("Article", "article");

    // A remote client's page view, twice (first visit warms the replica).
    const net::NodeId edge = nodes.edge_servers[0];
    const net::NodeId entry = distributed ? edge : nodes.main_server;
    sim::SimTime start;
    sim::SimTime done;
    sim.spawn([](comp::Runtime& rt, net::NodeId entry, sim::Simulator& sim, sim::SimTime& start,
                 sim::SimTime& done) -> Task<void> {
      (void)co_await rt.invoke(entry, "Web", "article", std::int64_t{7});  // warm
      start = sim.now();
      (void)co_await rt.invoke(entry, "Web", "article", std::int64_t{7});
      done = sim.now();
    }(rt, entry, sim, start, done));
    sim.run_until();
    return (done - start).as_millis();
  };

  const double centralized_ms = run_once(false) + 400.0;  // + WAN HTTP round trips
  const double distributed_ms = run_once(true);

  std::cout << "Remote client, one article page view:\n"
            << "  centralized deployment: " << centralized_ms << " ms"
            << "  (page runs at the main server, HTTP crosses the WAN)\n"
            << "  design rules applied:   " << distributed_ms << " ms"
            << "  (page runs at the edge, served by a read-only replica)\n\n"
            << "Next steps: examples/petstore_tour.cpp walks the paper's full\n"
            << "five-configuration ladder; examples/placement_advisor.cpp derives\n"
            << "the distribution automatically from a measured profile.\n";
  return 0;
}
