#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "db/database.hpp"
#include "db/jdbc.hpp"
#include "db/query.hpp"
#include "db/table.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::db {
namespace {

using sim::Duration;
using sim::ms;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

std::vector<Column> item_columns() {
  return {{"id", ColumnType::kInt},
          {"product_id", ColumnType::kInt},
          {"name", ColumnType::kText},
          {"price", ColumnType::kReal}};
}

Row item_row(std::int64_t id, std::int64_t product, std::string name, double price) {
  return Row{id, product, std::move(name), price};
}

/// The row versions behind `rows`: equal lists hold the same shared rows.
std::vector<const Row*> versions(const std::vector<RowRef>& rows) {
  std::vector<const Row*> out;
  for (const RowRef& r : rows) out.push_back(&*r);
  return out;
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, InsertGetUpdateErase) {
  Table t{"item", item_columns()};
  t.insert(item_row(1, 10, "fish", 9.99));
  ASSERT_TRUE(t.contains(1));
  auto row = t.get(1);
  ASSERT_TRUE(row);
  EXPECT_EQ(as_text((*row)[2]), "fish");

  t.update_column(1, "price", 12.5);
  EXPECT_DOUBLE_EQ(as_real((*t.get(1))[3]), 12.5);

  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_FALSE(t.get(1));
}

TEST(TableTest, SchemaValidation) {
  Table t{"item", item_columns()};
  EXPECT_THROW(t.insert(Row{std::int64_t{1}, std::int64_t{2}}), std::invalid_argument);
  EXPECT_THROW(t.insert(Row{std::string{"x"}, std::int64_t{2}, std::string{"y"}, 1.0}),
               std::invalid_argument);
  t.insert(item_row(1, 10, "fish", 9.99));
  EXPECT_THROW(t.insert(item_row(1, 11, "dup", 1.0)), std::invalid_argument);
  EXPECT_THROW(t.update_column(1, "id", std::int64_t{5}), std::invalid_argument);
  EXPECT_THROW(t.update_column(99, "price", 1.0), std::out_of_range);
  EXPECT_THROW((void)t.column_index("nope"), std::invalid_argument);
}

TEST(TableTest, PrimaryKeyMustBeInt) {
  EXPECT_THROW(Table("bad", {{"pk", ColumnType::kText}}), std::invalid_argument);
  EXPECT_THROW(Table("bad", {}), std::invalid_argument);
}

TEST(TableTest, FindEqualWithAndWithoutIndex) {
  Table t{"item", item_columns()};
  for (std::int64_t i = 0; i < 30; ++i) t.insert(item_row(i, i % 3, "it", 1.0));

  auto scan_result = t.find_equal("product_id", std::int64_t{1});
  EXPECT_EQ(scan_result.size(), 10u);

  t.create_index("product_id");
  ASSERT_TRUE(t.has_index("product_id"));
  auto idx_result = t.find_equal("product_id", std::int64_t{1});
  EXPECT_EQ(idx_result.size(), 10u);
}

TEST(TableTest, IndexMaintainedAcrossMutations) {
  Table t{"item", item_columns()};
  t.create_index("product_id");
  t.insert(item_row(1, 7, "a", 1.0));
  t.insert(item_row(2, 7, "b", 1.0));
  EXPECT_EQ(t.find_equal("product_id", std::int64_t{7}).size(), 2u);

  t.update_column(1, "product_id", std::int64_t{8});
  EXPECT_EQ(t.find_equal("product_id", std::int64_t{7}).size(), 1u);
  EXPECT_EQ(t.find_equal("product_id", std::int64_t{8}).size(), 1u);

  t.erase(2);
  EXPECT_TRUE(t.find_equal("product_id", std::int64_t{7}).empty());
}

TEST(TableTest, ForEachEqualMatchesFindEqualWithAndWithoutIndex) {
  Table t{"item", item_columns()};
  for (std::int64_t i = 0; i < 30; ++i) t.insert(item_row(i, i % 3, "it", 1.0));

  auto visit = [&](const Value& key) {
    std::vector<const Row*> seen;
    t.for_each_equal("product_id", key, [&](const RowRef& r) { seen.push_back(&*r); });
    return seen;
  };
  // Same rows, same (pk-ascending) order, on both the scan and index paths.
  EXPECT_EQ(visit(std::int64_t{1}), versions(t.find_equal("product_id", std::int64_t{1})));
  t.create_index("product_id");
  EXPECT_EQ(visit(std::int64_t{1}), versions(t.find_equal("product_id", std::int64_t{1})));
  EXPECT_TRUE(visit(std::int64_t{99}).empty());
}

TEST(TableTest, ForEachEqualVisitsRowsInPlace) {
  Table t{"item", item_columns()};
  t.create_index("product_id");
  t.insert(item_row(1, 7, "a", 1.0));
  t.insert(item_row(2, 7, "b", 1.0));
  // The visited handles are the stored versions themselves — the addresses
  // are stable across visits, proving no per-visit copies are made.
  std::vector<const Row*> first, second;
  t.for_each_equal("product_id", std::int64_t{7}, [&](const RowRef& r) { first.push_back(&*r); });
  t.for_each_equal("product_id", std::int64_t{7},
                   [&](const RowRef& r) { second.push_back(&*r); });
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(as_text((*first[0])[2]), "a");
  EXPECT_EQ(as_text((*first[1])[2]), "b");
}

TEST(TableTest, TextColumnIndexLookups) {
  Table t{"item", item_columns()};
  t.create_index("name");
  t.insert(item_row(1, 10, "fish", 1.0));
  t.insert(item_row(2, 11, "fish", 2.0));
  t.insert(item_row(3, 12, "cat", 3.0));
  EXPECT_EQ(t.find_equal("name", std::string("fish")).size(), 2u);
  EXPECT_EQ(t.find_equal("name", std::string("cat")).size(), 1u);
  EXPECT_TRUE(t.find_equal("name", std::string("dog")).empty());
  std::size_t visited = 0;
  t.for_each_equal("name", std::string("fish"), [&](const RowRef&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

TEST(TableTest, IndexSurvivesRowStorageGrowth) {
  // Index entries point at rows held by node-based storage; inserting many
  // rows after indexing must not invalidate earlier entries.
  Table t{"item", item_columns()};
  t.create_index("product_id");
  t.insert(item_row(0, 42, "first", 1.0));
  for (std::int64_t i = 1; i < 500; ++i) t.insert(item_row(i, i % 5, "fill", 1.0));
  auto rows = t.find_equal("product_id", std::int64_t{42});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(as_text((*rows[0])[2]), "first");
}

TEST(TableTest, ScanPredicate) {
  Table t{"item", item_columns()};
  for (std::int64_t i = 0; i < 10; ++i) t.insert(item_row(i, 0, "it", static_cast<double>(i)));
  auto rows = t.scan([](const Row& r) { return as_real(r[3]) >= 7.0; });
  EXPECT_EQ(rows.size(), 3u);
}

TEST(TableTest, ApproxRowBytesPositive) {
  Table t{"item", item_columns()};
  EXPECT_GT(t.approx_row_bytes(), 0);
  t.insert(item_row(1, 2, "some item name", 3.0));
  EXPECT_GT(t.approx_row_bytes(), 20);
}

// --- Database ----------------------------------------------------------------

struct DbHarness {
  Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId app, dbnode;
  net::Network net{sim, topo, Duration::zero()};
  Database db;

  DbHarness() : db{topo, make_nodes(), DbCostModel{}} {
    auto& t = db.create_table("item", item_columns());
    for (std::int64_t i = 0; i < 50; ++i) t.insert(item_row(i, i % 5, "item", 2.0));
    t.create_index("product_id");
  }

  net::NodeId make_nodes() {
    app = topo.add_node("app", net::NodeRole::kAppServer);
    dbnode = topo.add_node("db", net::NodeRole::kDatabaseServer);
    topo.add_link(app, dbnode, ms(0.2), 100e6);
    return dbnode;
  }

  Duration timed(Task<void> t) {
    SimTime start = sim.now();
    sim.spawn(std::move(t));
    sim.run_until();
    return sim.now() - start;
  }
};

TEST(DatabaseTest, PkLookupHitAndMiss) {
  DbHarness h;
  auto hit = h.db.execute_immediate(Query::pk_lookup("item", 7));
  ASSERT_EQ(hit.rows.size(), 1u);
  EXPECT_EQ(as_int((*hit.rows[0])[0]), 7);
  auto miss = h.db.execute_immediate(Query::pk_lookup("item", 999));
  EXPECT_TRUE(miss.rows.empty());
}

TEST(DatabaseTest, FinderReturnsMatches) {
  DbHarness h;
  auto res = h.db.execute_immediate(Query::finder("item", "product_id", std::int64_t{2}));
  EXPECT_EQ(res.rows.size(), 10u);
}

TEST(DatabaseTest, AggregateDispatch) {
  DbHarness h;
  h.db.register_aggregate("count_items", [](Database& db, const std::vector<Value>&) {
    return std::vector<RowRef>{
        RowRef::make(Row{static_cast<std::int64_t>(db.table("item").row_count())})};
  });
  auto res = h.db.execute_immediate(Query::aggregate("count_items"));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(as_int((*res.rows[0])[0]), 50);
  EXPECT_THROW(h.db.execute_immediate(Query::aggregate("nope")), std::invalid_argument);
}

TEST(DatabaseTest, KeywordSearch) {
  DbHarness h;
  h.db.table("item").insert(item_row(100, 0, "angelfish deluxe", 5.0));
  auto res = h.db.execute_immediate(Query::keyword_search("item", "name", "angel"));
  EXPECT_EQ(res.rows.size(), 1u);
}

TEST(DatabaseTest, WritesMutateTheTable) {
  DbHarness h;
  h.db.execute_immediate(Query::update("item", 3, "price", 9.0));
  h.db.execute_immediate(Query::insert("item", item_row(200, 1, "new", 1.0)));
  h.db.execute_immediate(Query::del("item", 4));
  EXPECT_DOUBLE_EQ(as_real((*h.db.table("item").get(3))[3]), 9.0);
  EXPECT_TRUE(h.db.table("item").contains(200));
  EXPECT_FALSE(h.db.table("item").contains(4));
}

TEST(DatabaseTest, ExecuteConsumesServiceTime) {
  // A statement leg holds its shard's CPU for the query's service demand.
  DbHarness h;
  Duration d = h.timed([](DbHarness& h) -> Task<void> {
    co_await h.db.consume_shard(0, Query::pk_lookup("item", 1), 1);
  }(h));
  EXPECT_EQ(d, h.db.cost_model().pk_lookup);
  const Query finder = Query::finder("item", "product_id", std::int64_t{0});
  d = h.timed([](DbHarness& h, const Query& q) -> Task<void> {
    co_await h.db.consume_shard(0, q, 10);
  }(h, finder));
  EXPECT_EQ(d, h.db.cost_of(finder, 10));
}

TEST(DatabaseTest, CostScalesWithRows) {
  DbHarness h;
  Query q = Query::finder("item", "product_id", std::int64_t{0});
  EXPECT_GT(h.db.cost_of(q, 100), h.db.cost_of(q, 1));
}

TEST(DatabaseTest, QueryCacheKeyDistinguishesQueries) {
  auto a = Query::finder("item", "product_id", std::int64_t{1}).cache_key();
  auto b = Query::finder("item", "product_id", std::int64_t{2}).cache_key();
  auto c = Query::aggregate("products_in_category", {std::int64_t{1}}).cache_key();
  auto c2 = Query::aggregate("products_in_category", {std::int64_t{1}}).cache_key();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(c, c2);
}

// --- JDBC --------------------------------------------------------------------

TEST(JdbcTest, FirstStatementOpensConnectionThenPools) {
  DbHarness h;
  JdbcClient jdbc{h.net, h.db, h.app};
  (void)h.timed([](JdbcClient& j) -> Task<void> {
    (void)co_await j.execute(Query::pk_lookup("item", 1));
    (void)co_await j.execute(Query::pk_lookup("item", 2));
  }(jdbc));
  EXPECT_EQ(jdbc.statements(), 2u);
  EXPECT_EQ(jdbc.connections_opened(), 1u);
}

TEST(JdbcTest, NoPoolingOpensEveryTime) {
  DbHarness h;
  JdbcConfig cfg;
  cfg.pool_connections = false;
  JdbcClient jdbc{h.net, h.db, h.app, cfg};
  (void)h.timed([](JdbcClient& j) -> Task<void> {
    (void)co_await j.execute(Query::pk_lookup("item", 1));
    (void)co_await j.execute(Query::pk_lookup("item", 2));
  }(jdbc));
  EXPECT_EQ(jdbc.connections_opened(), 2u);
}

TEST(JdbcTest, LargeResultsCostExtraFetchRoundTrips) {
  DbHarness h;
  JdbcConfig cfg;
  cfg.fetch_size = 3;
  JdbcClient jdbc{h.net, h.db, h.app, cfg};
  (void)h.timed([](JdbcClient& j) -> Task<void> {
    // 10 rows at fetch_size 3 -> 4 batches -> 3 extra round trips.
    (void)co_await j.execute(Query::finder("item", "product_id", std::int64_t{0}));
  }(jdbc));
  EXPECT_EQ(jdbc.fetch_round_trips(), 3u);
}

TEST(JdbcTest, WanJdbcIsMuchSlowerThanLan) {
  // The §4.2 motivation: direct JDBC from an edge web tier across the WAN.
  Simulator sim{1};
  net::Topology topo{sim};
  auto edge = topo.add_node("edge", net::NodeRole::kAppServer);
  auto dbn = topo.add_node("db", net::NodeRole::kDatabaseServer);
  topo.add_link(edge, dbn, ms(100), 100e6);
  net::Network net{sim, topo, Duration::zero()};
  Database db{topo, dbn};
  auto& t = db.create_table("item", item_columns());
  for (std::int64_t i = 0; i < 20; ++i) t.insert(item_row(i, 0, "x", 1.0));

  JdbcConfig cfg;
  cfg.fetch_size = 2;  // BMP-ish verbose traversal
  JdbcClient jdbc{net, db, edge, cfg};
  SimTime start = sim.now();
  sim.spawn([](JdbcClient& j) -> Task<void> {
    (void)co_await j.execute(Query::finder("item", "product_id", std::int64_t{0}));
  }(jdbc));
  sim.run_until();
  // connect RTT + query RTT + 9 fetch RTTs = 11 round trips = 2200 ms.
  EXPECT_GT((sim.now() - start).as_millis(), 2000.0);
}

TEST(JdbcTest, ScatterTakesTheSlowestLegThenEachShardReusesItsConnection) {
  // Two shards at different distances from the client; infinite bandwidth,
  // so each leg's time is its round trips plus its shard's service time.
  Simulator sim{1};
  net::Topology topo{sim};
  auto app = topo.add_node("app", net::NodeRole::kAppServer);
  auto near = topo.add_node("db-0", net::NodeRole::kDatabaseServer);
  auto far = topo.add_node("db-1", net::NodeRole::kDatabaseServer);
  topo.add_link(app, near, ms(1));
  topo.add_link(app, far, ms(5));
  net::Network net{sim, topo, Duration::zero()};
  Database db{topo, std::vector<net::NodeId>{near, far}};
  auto& t = db.create_table("item", item_columns());
  for (std::int64_t i = 0; i < 20; ++i) t.insert(item_row(i, 0, "x", 1.0));
  t.create_index("product_id");

  JdbcConfig cfg;
  cfg.fetch_size = 100;  // one batch rides on the query response
  JdbcClient jdbc{net, db, app, cfg};
  auto timed = [&](Query q) {
    const SimTime start = sim.now();
    sim.spawn([](JdbcClient& j, Query q) -> Task<void> {
      (void)co_await j.execute(std::move(q));
    }(jdbc, std::move(q)));
    sim.run_until();
    return sim.now() - start;
  };

  const Query finder = Query::finder("item", "product_id", std::int64_t{0});
  const auto slices = db.partition_result(db.execute_immediate(finder));
  ASSERT_EQ(slices.size(), 2u);
  ASSERT_GT(slices[0].rows, 0u);
  ASSERT_GT(slices[1].rows, 0u);
  // Each leg: connect round trip, query hop, service, result hop.
  const Duration near_leg = ms(4) + db.cost_of(finder, slices[0].rows);
  const Duration far_leg = ms(20) + db.cost_of(finder, slices[1].rows);
  EXPECT_EQ(timed(finder), std::max(near_leg, far_leg));
  EXPECT_EQ(jdbc.connections_opened(), 2u);  // one per shard

  // A primary-key lookup runs one leg on its owner, on the pooled connection.
  std::int64_t on_near = -1, on_far = -1;
  for (std::int64_t pk = 0; pk < 20; ++pk) {
    (db.router().shard_of(pk) == 0 ? on_near : on_far) = pk;
  }
  ASSERT_GE(on_near, 0);
  ASSERT_GE(on_far, 0);
  EXPECT_EQ(timed(Query::pk_lookup("item", on_near)), ms(2) + db.cost_model().pk_lookup);
  EXPECT_EQ(timed(Query::pk_lookup("item", on_far)), ms(10) + db.cost_model().pk_lookup);
  EXPECT_EQ(jdbc.connections_opened(), 2u);
  EXPECT_EQ(jdbc.statements(), 3u);
}

}  // namespace
}  // namespace mutsvc::db
