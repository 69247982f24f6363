#pragma once

#include <cstdint>
#include <vector>

#include "db/database.hpp"
#include "db/query.hpp"
#include "net/network.hpp"

namespace mutsvc::db {

struct JdbcConfig {
  /// Rows returned per fetch round trip when traversing a result set.
  /// Small fetch sizes reproduce the "verbose communication with the
  /// database server" the paper blames for the naive web-tier-over-WAN
  /// deployment (§4.2), and the "n+1 database calls problem" (§5).
  int fetch_size = 10;
  net::Bytes query_bytes = 300;     // SQL text + bind parameters
  net::Bytes fetch_request_bytes = 60;
  net::Bytes connect_bytes = 250;   // login handshake payload

  /// When false, every statement opens (and discards) a fresh connection —
  /// the original Pet Store behaviour the paper's §3.4 modifications fixed.
  bool pool_connections = true;
};

/// JDBC client bound to one (client node, database) pair.
///
/// Where a statement spends simulated time. Wire behaviour per statement
/// and shard (one leg): [connection open: one round trip, skipped when a
/// pooled connection to that shard is available] + query round trip
/// carrying the first fetch batch, with the service time on the shard's
/// CPUs in between + one extra round trip per additional fetch batch.
/// Connections pool per shard. A statement that only touches one shard
/// (primary-key kinds; everything with one shard) runs one leg against
/// that shard's node; scan-class statements scatter one leg to every shard
/// in parallel and gather the merged result deterministically.
class JdbcClient {
 public:
  JdbcClient(net::Network& net, Database& db, net::NodeId client, JdbcConfig cfg = {})
      : net_(net),
        db_(db),
        client_(client),
        cfg_(cfg),
        pooled_available_(db.shard_count(), 0) {}

  JdbcClient(const JdbcClient&) = delete;
  JdbcClient& operator=(const JdbcClient&) = delete;

  /// NOTE: coroutine — `q` by value so the lazy task owns its query even
  /// when the caller's wrapper returns before the task is awaited.
  [[nodiscard]] sim::Task<QueryResult> execute(Query q);

  [[nodiscard]] std::uint64_t statements() const { return statements_; }
  [[nodiscard]] std::uint64_t connections_opened() const { return connections_opened_; }
  [[nodiscard]] std::uint64_t fetch_round_trips() const { return fetch_round_trips_; }
  [[nodiscard]] const JdbcConfig& config() const { return cfg_; }

 private:
  /// One leg of `q` against `shard`: pooled-or-new connection, query hop,
  /// service time on the shard's CPUs, fetch batches, pool release. With a
  /// null `slice` the leg reads the table into `res` once the query has
  /// crossed the wire and ships all of it (a single-shard statement); a
  /// scatter leg ships its `slice` of a result read before the legs start.
  [[nodiscard]] sim::Task<void> leg(std::size_t shard, const Query& q, QueryResult& res,
                                    const Database::ShardSlice* slice);

  /// Ships `bytes` of result rows back in fetch batches.
  [[nodiscard]] sim::Task<void> fetch_result(net::NodeId server, std::size_t rows,
                                             net::Bytes bytes);

  net::Network& net_;
  Database& db_;
  net::NodeId client_;
  JdbcConfig cfg_;
  std::vector<int> pooled_available_;  // per shard
  std::uint64_t statements_ = 0;
  std::uint64_t connections_opened_ = 0;
  std::uint64_t fetch_round_trips_ = 0;
};

}  // namespace mutsvc::db
