#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/query.hpp"
#include "db/shard.hpp"
#include "db/table.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace mutsvc::db {

/// Per-query-kind service demands on the database server's CPUs.
///
/// Defaults are calibrated so the reproduced *centralized local* column of
/// Tables 6/7 lands near the paper's; see core/calibration.hpp.
struct DbCostModel {
  sim::Duration pk_lookup = sim::us(400);
  sim::Duration finder_base = sim::ms(1.0);
  sim::Duration finder_per_row = sim::us(25);
  sim::Duration aggregate_base = sim::ms(2.5);
  sim::Duration aggregate_per_row = sim::us(50);
  sim::Duration keyword_base = sim::ms(6.0);
  sim::Duration keyword_per_row = sim::us(40);
  sim::Duration update = sim::ms(1.2);
  sim::Duration insert = sim::ms(1.2);
  sim::Duration del = sim::ms(1.0);
};

/// The relational database tier (Oracle/MySQL stand-in, §3.1) — one logical
/// database served by one or more shard nodes.
///
/// Storage plus routing: tables stay logically unified (queries see every
/// row, so results are independent of the shard count), and the
/// ShardRouter hash-partitions each table's primary-key space so that
/// primary-key operations belong to the owning shard while scan-class
/// queries (finders, aggregates, keyword searches) span every shard, each
/// shard owning its slice of the result. A statement spends simulated time
/// in JdbcClient, whose legs bill each shard's CPUs through consume_shard.
/// With one shard this collapses exactly to the paper's single-RDBMS
/// testbed.
class Database {
 public:
  using AggregateFn = std::function<std::vector<RowRef>(Database&, const std::vector<Value>&)>;

  Database(net::Topology& topo, net::NodeId home, DbCostModel cost = {})
      : Database(topo, std::vector<net::NodeId>{home}, cost) {}

  Database(net::Topology& topo, std::vector<net::NodeId> homes, DbCostModel cost = {})
      : topo_(topo), homes_(std::move(homes)), cost_(cost), router_(homes_.size()) {
    if (homes_.empty()) throw std::invalid_argument("Database: needs at least one shard node");
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Shard 0's node — the coordinator, and with one shard the single RDBMS.
  [[nodiscard]] net::NodeId home_node() const { return homes_.front(); }
  [[nodiscard]] const DbCostModel& cost_model() const { return cost_; }
  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] std::size_t shard_count() const { return homes_.size(); }
  [[nodiscard]] net::NodeId shard_node(std::size_t shard) const { return homes_.at(shard); }

  Table& create_table(std::string name, std::vector<Column> columns);
  [[nodiscard]] Table& table(const std::string& name);
  [[nodiscard]] const Table& table(const std::string& name) const;
  [[nodiscard]] bool has_table(const std::string& name) const { return tables_.contains(name); }

  /// Registers a named aggregate query (the stand-in for app-specific SQL).
  void register_aggregate(std::string name, AggregateFn fn);

  /// Executes instantly, with no simulated cost: JdbcClient's legs read
  /// through this, and population and tests call it directly.
  QueryResult execute_immediate(const Query& q);

  /// The shard that exclusively serves `q` (primary-key kinds route by the
  /// key's owner; every kind with one shard), or nullopt for cross-shard
  /// fan-out kinds.
  [[nodiscard]] std::optional<std::size_t> single_shard(const Query& q) const;

  /// One shard's share of a fan-out result: its row count and wire bytes.
  struct ShardSlice {
    std::size_t rows = 0;
    net::Bytes bytes = 0;
  };

  /// Partitions a result across shards, attributing each row to the shard
  /// owning its primary key (synthetic rows without an integer key column
  /// round-robin deterministically by index). Sized shard_count().
  [[nodiscard]] std::vector<ShardSlice> partition_result(const QueryResult& res) const;

  /// The service demand `q` would incur given its result size.
  [[nodiscard]] sim::Duration cost_of(const Query& q, std::size_t result_rows) const;

  /// Awaitable that holds one of `shard`'s CPUs for the service demand of
  /// `q` over `rows` result rows — how a JDBC leg bills the shard it runs
  /// on. The demand is computed here, so `q` need not outlive the call.
  [[nodiscard]] auto consume_shard(std::size_t shard, const Query& q, std::size_t rows) {
    return topo_.node(homes_.at(shard)).cpu->consume(cost_of(q, rows));
  }

  /// Allocates the next primary key for `table` (sequence stand-in).
  [[nodiscard]] std::int64_t allocate_id(const std::string& name) {
    auto [it, inserted] = sequences_.try_emplace(name, table(name).max_pk());
    return ++it->second;
  }

 private:
  net::Topology& topo_;
  std::vector<net::NodeId> homes_;
  DbCostModel cost_;
  ShardRouter router_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, AggregateFn> aggregates_;
  std::unordered_map<std::string, std::int64_t> sequences_;
};

}  // namespace mutsvc::db
