// Deeper database coverage: id allocation, wire sizing, cost laws, fetch
// batching sweeps, aggregate parameters.
#include <gtest/gtest.h>

#include <type_traits>

#include "db/database.hpp"
#include "db/jdbc.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::db {
namespace {

using sim::Duration;
using sim::ms;
using sim::Simulator;
using sim::Task;

struct Fixture {
  Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId app, dbn;
  net::Network net{sim, topo, Duration::zero()};
  std::unique_ptr<Database> db;

  Fixture() {
    app = topo.add_node("app", net::NodeRole::kAppServer);
    dbn = topo.add_node("db", net::NodeRole::kDatabaseServer);
    topo.add_link(app, dbn, ms(0.2), 100e6);
    db = std::make_unique<Database>(topo, dbn);
    auto& t = db->create_table("orders", {{"id", ColumnType::kInt},
                                          {"account", ColumnType::kInt},
                                          {"note", ColumnType::kText}});
    t.insert(Row{std::int64_t{10}, std::int64_t{1}, std::string{"seed"}});
  }
};

TEST(DbExtraTest, AllocateIdStartsAboveExistingMax) {
  Fixture f;
  EXPECT_EQ(f.db->allocate_id("orders"), 11);
  EXPECT_EQ(f.db->allocate_id("orders"), 12);
}

TEST(DbExtraTest, AllocateIdSurvivesConcurrentInserts) {
  Fixture f;
  const std::int64_t a = f.db->allocate_id("orders");
  f.db->execute_immediate(Query::insert("orders", Row{a, std::int64_t{2}, std::string{"x"}}));
  const std::int64_t b = f.db->allocate_id("orders");
  EXPECT_GT(b, a);
  f.db->execute_immediate(Query::insert("orders", Row{b, std::int64_t{3}, std::string{"y"}}));
  EXPECT_EQ(f.db->table("orders").row_count(), 3u);
}

TEST(DbExtraTest, AllocateIdOnEmptyTableStartsAtOne) {
  Fixture f;
  f.db->create_table("empty", {{"id", ColumnType::kInt}});
  EXPECT_EQ(f.db->allocate_id("empty"), 1);
}

TEST(DbExtraTest, WireSizeReflectsContent) {
  EXPECT_EQ(wire_size(Value{std::int64_t{1}}), 8);
  EXPECT_EQ(wire_size(Value{1.5}), 8);
  EXPECT_EQ(wire_size(Value{std::string{"abcd"}}), 8);  // 4 chars + 4 len
  Row r{std::int64_t{1}, std::string{"abcd"}};
  EXPECT_EQ(wire_size(r), 16);
}

TEST(DbExtraTest, QueryResultWireBytesGrowWithRows) {
  QueryResult small;
  small.rows = {RowRef::make(Row{std::int64_t{1}})};
  QueryResult large;
  for (int i = 0; i < 100; ++i) large.rows.push_back(RowRef::make(Row{std::int64_t{i}}));
  EXPECT_GT(large.wire_bytes(), small.wire_bytes());
}

TEST(DbExtraTest, CostModelOrdersQueryKinds) {
  Fixture f;
  const auto& m = f.db->cost_model();
  EXPECT_LT(m.pk_lookup, m.finder_base);
  EXPECT_LT(m.finder_base, m.aggregate_base);
  EXPECT_LT(m.aggregate_base, m.keyword_base);
  // Per-row terms dominate for huge result sets.
  Query finder = Query::finder("orders", "account", std::int64_t{1});
  EXPECT_GT(f.db->cost_of(finder, 10000), f.db->cost_of(Query::keyword_search("orders", "note", "x"), 0));
}

TEST(DbExtraTest, AggregateReceivesParams) {
  Fixture f;
  f.db->register_aggregate("echo_param", [](Database&, const std::vector<Value>& params) {
    return std::vector<RowRef>{RowRef::make(Row{params.at(0)})};
  });
  auto res = f.db->execute_immediate(Query::aggregate("echo_param", {std::int64_t{42}}));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(as_int((*res.rows[0])[0]), 42);
}

TEST(DbExtraTest, DeleteMissingRowAffectsZero) {
  Fixture f;
  auto res = f.db->execute_immediate(Query::del("orders", 999));
  EXPECT_EQ(res.affected, 0);
  EXPECT_EQ(f.db->execute_immediate(Query::del("orders", 10)).affected, 1);
}

/// Fetch-batching law: extra round trips = ceil(rows/fetch) - 1.
class FetchBatching : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FetchBatching, RoundTripsMatchTheory) {
  const auto [rows, fetch_size] = GetParam();
  Fixture f;
  auto& t = f.db->create_table("wide", {{"id", ColumnType::kInt}, {"g", ColumnType::kInt}});
  for (int i = 0; i < rows; ++i) t.insert(Row{std::int64_t{i}, std::int64_t{0}});
  t.create_index("g");

  JdbcConfig cfg;
  cfg.fetch_size = fetch_size;
  JdbcClient jdbc{f.net, *f.db, f.app, cfg};
  f.sim.spawn([](JdbcClient& j) -> Task<void> {
    (void)co_await j.execute(Query::finder("wide", "g", std::int64_t{0}));
  }(jdbc));
  f.sim.run_until();

  const int batches = rows <= fetch_size ? 1 : (rows + fetch_size - 1) / fetch_size;
  EXPECT_EQ(jdbc.fetch_round_trips(), static_cast<std::uint64_t>(batches - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FetchBatching,
                         ::testing::Values(std::make_tuple(1, 10), std::make_tuple(10, 10),
                                           std::make_tuple(11, 10), std::make_tuple(30, 10),
                                           std::make_tuple(30, 1), std::make_tuple(100, 16)));

TEST(DbExtraTest, DbCpuStaysUnderPaperBoundDuringQueryStorm) {
  Fixture f;
  // 30 pk lookups/s for 100s at 0.4ms each on 2 CPUs => ~0.6% utilization.
  f.sim.spawn([](Fixture& f) -> Task<void> {
    for (int i = 0; i < 3000; ++i) {
      co_await f.db->consume_shard(0, Query::pk_lookup("orders", 10), 1);
      co_await f.sim.wait(ms(33));
    }
  }(f));
  f.sim.run_until();
  EXPECT_LT(f.topo.node(f.dbn).cpu->utilization(), 0.05);  // §3.1's <5%
}

// --- secondary-index stability across erase/update paths ---------------------
//
// The index stores direct pointers into the row storage (stable std::map
// nodes whose handle a write swaps in place); these regressions pin the
// invariant across every mutation path — the original suite only exercised
// insert.

// A copy would duplicate index entries that point into the source's rows,
// and share the versions' non-atomic counts; a move keeps the map nodes.
static_assert(!std::is_copy_constructible_v<Table>);
static_assert(!std::is_copy_assignable_v<Table>);
static_assert(std::is_move_constructible_v<Table>);
static_assert(std::is_move_assignable_v<Table>);

Table indexed_table() {
  Table t{"item", {{"id", ColumnType::kInt},
                   {"product", ColumnType::kInt},
                   {"name", ColumnType::kText}}};
  t.create_index("product");
  for (std::int64_t pk = 1; pk <= 6; ++pk) {
    t.insert(Row{pk, std::int64_t{pk % 2}, std::string{"n"} + std::to_string(pk)});
  }
  return t;  // products: odd pks -> 1, even pks -> 0
}

TEST(TableIndexTest, EraseRemovesOnlyThatRowFromSharedBucket) {
  Table t = indexed_table();
  ASSERT_EQ(t.find_equal("product", std::int64_t{1}).size(), 3u);  // pks 1,3,5
  EXPECT_TRUE(t.erase(3));
  const auto rows = t.find_equal("product", std::int64_t{1});
  ASSERT_EQ(rows.size(), 2u);
  // Surviving entries still dereference to valid, correct row content.
  EXPECT_EQ(as_int((*rows[0])[0]), 1);
  EXPECT_EQ(as_int((*rows[1])[0]), 5);
  EXPECT_EQ(as_text((*rows[1])[2]), "n5");
}

TEST(TableIndexTest, FullRowUpdateMovesIndexBucket) {
  Table t = indexed_table();
  // Move pk 2 from product 0 to product 9 via the full-row path.
  t.update(2, Row{std::int64_t{2}, std::int64_t{9}, std::string{"moved"}});
  EXPECT_EQ(t.find_equal("product", std::int64_t{0}).size(), 2u);  // pks 4,6
  const auto moved = t.find_equal("product", std::int64_t{9});
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(as_int((*moved[0])[0]), 2);
  EXPECT_EQ(as_text((*moved[0])[2]), "moved");  // pointer sees the new content
}

TEST(TableIndexTest, UpdateColumnOnIndexedColumnMovesBucket) {
  Table t = indexed_table();
  t.update_column(1, "product", std::int64_t{7});
  EXPECT_EQ(t.find_equal("product", std::int64_t{1}).size(), 2u);  // pks 3,5
  const auto moved = t.find_equal("product", std::int64_t{7});
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(as_int((*moved[0])[0]), 1);
}

TEST(TableIndexTest, UpdateColumnOnUnindexedColumnIsVisibleThroughIndex) {
  Table t = indexed_table();
  t.update_column(1, "name", std::string{"renamed"});
  bool seen = false;
  t.for_each_equal("product", std::int64_t{1}, [&](const RowRef& row) {
    if (as_int((*row)[0]) == 1) {
      seen = true;
      EXPECT_EQ(as_text((*row)[2]), "renamed");  // the new version, via the index
    }
  });
  EXPECT_TRUE(seen);
}

TEST(TableIndexTest, EraseThenReinsertSamePkReindexesCleanly) {
  Table t = indexed_table();
  EXPECT_TRUE(t.erase(4));
  t.insert(Row{std::int64_t{4}, std::int64_t{5}, std::string{"back"}});
  // Exactly one entry for pk 4, under the new value only.
  EXPECT_TRUE(t.find_equal("product", std::int64_t{0}).size() == 2);  // pks 2,6
  const auto rows = t.find_equal("product", std::int64_t{5});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(as_text((*rows[0])[2]), "back");
}

TEST(TableIndexTest, IndexCreatedAfterMutationsMatchesScan) {
  // Building an index over an already-mutated table agrees with a full
  // scan — and keeps agreeing after further mutations through every path.
  Table t{"item", {{"id", ColumnType::kInt},
                   {"product", ColumnType::kInt},
                   {"name", ColumnType::kText}}};
  for (std::int64_t pk = 1; pk <= 8; ++pk) {
    t.insert(Row{pk, std::int64_t{pk % 3}, std::string{"x"}});
  }
  t.update_column(1, "product", std::int64_t{2});
  (void)t.erase(6);
  t.create_index("product");
  for (std::int64_t v = 0; v <= 2; ++v) {
    const auto via_index = t.find_equal("product", Value{v});
    const std::size_t ci = t.column_index("product");
    const auto via_scan = t.scan([&](const Row& r) { return r[ci] == Value{v}; });
    ASSERT_EQ(via_index.size(), via_scan.size()) << "product " << v;
    for (std::size_t i = 0; i < via_index.size(); ++i) {
      EXPECT_EQ(&*via_index[i], &*via_scan[i]) << "product " << v;  // the same version
    }
  }
}

TEST(TableIndexTest, FullRowUpdateValidatesColumnTypes) {
  // Regression for the audit's finding: update() must reject rows that
  // violate the schema exactly like insert() and update_column() do, not
  // install them (corrupting the typed index keys).
  Table t = indexed_table();
  EXPECT_THROW(t.update(1, Row{std::int64_t{1}, std::string{"oops"}, std::string{"n"}}),
               std::invalid_argument);
  EXPECT_THROW(t.update(1, Row{std::string{"pk?"}, std::int64_t{1}, std::string{"n"}}),
               std::invalid_argument);
  // The failed updates left row and index untouched.
  const auto rows = t.find_equal("product", std::int64_t{1});
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(as_text((*t.get(1))[2]), "n1");
}

TEST(TableIndexTest, HandlesTakenBeforeAWriteKeepTheirVersion) {
  // Every read path hands out the row version current at the read. A write
  // swaps in a new version (copy-on-write), so what a reader holds never
  // changes under it; lookups after the write see the new rows.
  Table t = indexed_table();
  const RowRef got = t.get(1);
  const std::vector<RowRef> found = t.find_equal("product", std::int64_t{1});  // pks 1,3,5
  const std::vector<RowRef> scanned = t.scan([](const Row& r) { return as_int(r[0]) <= 2; });
  std::vector<RowRef> visited;
  t.for_each_equal("product", std::int64_t{1}, [&](const RowRef& r) { visited.push_back(r); });

  t.update_column(1, "product", std::int64_t{7});      // indexed column
  t.update_column(3, "name", std::string{"renamed"});  // unindexed column
  t.update(2, Row{std::int64_t{2}, std::int64_t{9}, std::string{"moved"}});
  EXPECT_TRUE(t.erase(5));

  EXPECT_EQ(as_int((*got)[1]), 1);
  ASSERT_EQ(scanned.size(), 2u);  // pks 1,2
  EXPECT_EQ(as_int((*scanned[0])[1]), 1);
  EXPECT_EQ(as_int((*scanned[1])[1]), 0);
  EXPECT_EQ(as_text((*scanned[1])[2]), "n2");
  auto expect_old_bucket = [](const std::vector<RowRef>& held) {
    ASSERT_EQ(held.size(), 3u);
    EXPECT_EQ(as_int((*held[0])[1]), 1);
    EXPECT_EQ(as_text((*held[1])[2]), "n3");
    EXPECT_EQ(as_text((*held[2])[2]), "n5");  // erased from the table, still held
  };
  expect_old_bucket(found);
  expect_old_bucket(visited);

  EXPECT_EQ(as_int((*t.get(1))[1]), 7);
  EXPECT_EQ(as_text((*t.get(2))[2]), "moved");
  EXPECT_FALSE(t.get(5));
  const auto odd = t.find_equal("product", std::int64_t{1});
  ASSERT_EQ(odd.size(), 1u);
  EXPECT_EQ(as_text((*odd[0])[2]), "renamed");
  EXPECT_EQ(t.find_equal("product", std::int64_t{7}).size(), 1u);
  EXPECT_EQ(t.find_equal("product", std::int64_t{9}).size(), 1u);
  EXPECT_EQ(t.find_equal("product", std::int64_t{0}).size(), 2u);  // pks 4,6
}

TEST(TableIndexTest, MovedTableKeepsItsIndex) {
  Table source = indexed_table();
  Table t = std::move(source);
  t.update_column(1, "product", std::int64_t{0});
  EXPECT_EQ(t.find_equal("product", std::int64_t{0}).size(), 4u);  // pks 1,2,4,6
  EXPECT_EQ(as_text((*t.find_equal("product", std::int64_t{1}).front())[2]), "n3");
}

// --- query-cache keys ------------------------------------------------------------

TEST(QueryCacheKeyTest, KeysOfIntAndPlainTextQueriesAreByteForBytePinned) {
  // The key's length feeds migration transfer bytes, so the keys every app
  // produces (int and separator-free text parameters) must never move.
  EXPECT_EQ(Query::finder("item", "product_id", std::int64_t{7}).cache_key(),
            "finder:item::product_id:0:#i7");
  EXPECT_EQ(Query::aggregate("bids_for_item", {std::int64_t{42}}).cache_key(),
            "aggregate::bids_for_item::0:#i0#i42");
  EXPECT_EQ(Query::pk_lookup("item", 1001001).cache_key(), "pk-lookup:item:::1001001:#i0");
  EXPECT_EQ(Query::keyword_search("product", "name", "fish").cache_key(),
            "keyword-search:product::name:0:fish#i0");
}

TEST(QueryCacheKeyTest, RealsKeyExactlySoNearbyValuesStayDistinct) {
  // Six significant digits would print both as 0.123457 and let one query's
  // cached rows answer the other.
  const std::string a = Query::finder("items", "price", 0.1234567).cache_key();
  const std::string b = Query::finder("items", "price", 0.1234568).cache_key();
  EXPECT_NE(a, b);
  EXPECT_EQ(a, "finder:items::price:0:#r0.1234567");
}

TEST(QueryCacheKeyTest, SeparatorsInsideTextCannotForgeAnotherQuerysKey) {
  const std::string forged = Query::aggregate("x", {Value{std::string{"a#i1"}}}).cache_key();
  const std::string real =
      Query::aggregate("x", {Value{std::string{"a"}}, Value{std::int64_t{1}}}).cache_key();
  EXPECT_NE(forged, real);
  EXPECT_EQ(real, "aggregate::x::0:#i0#ta#i1");
  // The field separator and the escape itself are escaped too: a text
  // ending in the escape must not swallow the next value's separator.
  Query shifted = Query::keyword_search("t", ":c", "kw");
  shifted.aggregate_name = "x";
  EXPECT_NE(Query::keyword_search("t:x", "c", "kw").cache_key(), shifted.cache_key());
  EXPECT_NE(Query::aggregate("x", {Value{std::string{"a\\"}}, Value{std::int64_t{1}}}).cache_key(),
            forged);
}

}  // namespace
}  // namespace mutsvc::db
