// Ablation A2 (§4.2): why the remote façade rule matters. Serving a
// catalog page from an edge server by (a) direct JDBC across the WAN —
// the naive deployment, with its verbose connection lifecycle and
// result-set traversal — versus (b) one bulk façade RMI, versus (c) not
// distributing at all (WAN HTTP to the centre).
#include <iostream>

#include "db/database.hpp"
#include "db/jdbc.hpp"
#include "net/network.hpp"
#include "net/rmi.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"

namespace {

using namespace mutsvc;
using sim::Duration;
using sim::ms;

struct Setup {
  sim::Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId edge, main;
  net::Network net{sim, topo, Duration::zero()};
  std::unique_ptr<db::Database> database;

  Setup() {
    edge = topo.add_node("edge", net::NodeRole::kAppServer);
    main = topo.add_node("main", net::NodeRole::kDatabaseServer);
    topo.add_link(edge, main, ms(100), 100e6);
    database = std::make_unique<db::Database>(topo, main);
    auto& products = database->create_table(
        "product", {{"id", db::ColumnType::kInt},
                    {"category_id", db::ColumnType::kInt},
                    {"name", db::ColumnType::kText}});
    for (std::int64_t i = 0; i < 60; ++i) {
      products.insert(db::Row{i, i % 10, std::string{"product-"} + std::to_string(i)});
    }
    products.create_index("category_id");
  }

  double timed(sim::Task<void> t) {
    sim::SimTime start = sim.now();
    sim.spawn(std::move(t));
    sim.run_until();
    return (sim.now() - start).as_millis();
  }
};

}  // namespace

int main() {
  std::cout << "=== Ablation A2: edge data access strategies for one catalog page ===\n"
            << "(6-row category listing; 100 ms one-way WAN; entity-per-row BMP loads)\n\n";

  stats::TextTable table{{"strategy", "page data-access time (ms)", "WAN messages"}};

  // (a) naive: edge web tier opens a JDBC connection across the WAN and
  // traverses the result set row by row, then loads each entity (n+1).
  {
    Setup s;
    db::JdbcConfig cfg;
    cfg.fetch_size = 1;               // row-at-a-time ResultSet traversal
    cfg.pool_connections = false;     // open/recycle per request
    db::JdbcClient jdbc{s.net, *s.database, s.edge, cfg};
    double t = s.timed([](db::JdbcClient& jdbc) -> sim::Task<void> {
      auto heads = co_await jdbc.execute(
          db::Query::finder("product", "category_id", std::int64_t{3}));
      for (const auto& row : heads.rows) {
        (void)co_await jdbc.execute(db::Query::pk_lookup("product", db::as_int((*row)[0])));
      }
    }(jdbc));
    table.add_row({"naive: WAN JDBC, n+1 loads", stats::TextTable::cell_fixed(t, 0),
                   std::to_string(s.net.wan_messages_sent())});
  }

  // (a') naive but with pooled connections and batch fetches.
  {
    Setup s;
    db::JdbcConfig cfg;
    cfg.fetch_size = 10;
    db::JdbcClient jdbc{s.net, *s.database, s.edge, cfg};
    double t = s.timed([](db::JdbcClient& jdbc) -> sim::Task<void> {
      (void)co_await jdbc.execute(
          db::Query::finder("product", "category_id", std::int64_t{3}));
    }(jdbc));
    table.add_row({"WAN JDBC, pooled + bulk fetch", stats::TextTable::cell_fixed(t, 0),
                   std::to_string(s.net.wan_messages_sent())});
  }

  // (b) remote façade: one bulk RMI; the query runs next to the database.
  {
    Setup s;
    net::RmiConfig rcfg;
    rcfg.extra_rtt_prob = 0.0;
    rcfg.dgc_traffic_factor = 1.0;
    net::RmiTransport rmi{s.net, rcfg};
    db::JdbcClient jdbc{s.net, *s.database, s.main};
    double t = s.timed([](net::RmiTransport& rmi, db::JdbcClient& jdbc, Setup& s)
                           -> sim::Task<void> {
      co_await rmi.call(s.edge, s.main, 200, [&]() -> sim::Task<net::Bytes> {
        auto res = co_await jdbc.execute(
            db::Query::finder("product", "category_id", std::int64_t{3}));
        co_return res.wire_bytes();
      });
    }(rmi, jdbc, s));
    table.add_row({"remote facade: 1 bulk RMI", stats::TextTable::cell_fixed(t, 0),
                   std::to_string(s.net.wan_messages_sent())});
  }

  // (c) centralized: the page is not served from the edge at all — the
  // client pays a WAN HTTP request instead (2 round trips, §4.1).
  table.add_row({"centralized (WAN HTTP, for reference)", "400", "4"});

  table.print(std::cout);
  std::cout << "\nThe naive deployment is 'overwhelmingly degraded' (§4.2); the façade\n"
            << "reduces the page to a single wide-area round trip and beats even the\n"
            << "centralized deployment's 2-RTT HTTP cost.\n";
  return 0;
}
