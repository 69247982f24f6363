#include "db/jdbc.hpp"

#include "sim/future.hpp"

namespace mutsvc::db {

sim::Task<QueryResult> JdbcClient::execute(Query q) {
  ++statements_;
  if (std::optional<std::size_t> shard = db_.single_shard(q)) {
    co_return co_await execute_at_shard(std::move(q), *shard);
  }
  // Scatter-gather: the logical query runs once (results are identical to a
  // single-shard run), while each shard's leg pays its own connection,
  // query round trip, slice of the service demand, and slice of the result
  // traffic — all legs in flight concurrently, joined in shard order.
  ++cross_shard_statements_;
  QueryResult res = db_.execute_immediate(q);
  std::vector<Database::ShardSlice> slices = db_.partition_result(res);
  std::vector<sim::Task<void>> legs;
  legs.reserve(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    legs.push_back(shard_leg(s, q, slices[s]));
  }
  co_await sim::when_all(net_.simulator(), std::move(legs));
  co_return res;
}

sim::Task<QueryResult> JdbcClient::execute_at_shard(Query q, std::size_t shard) {
  const net::NodeId server = db_.shard_node(shard);

  bool have_connection = cfg_.pool_connections && pooled_available_[shard] > 0;
  if (have_connection) {
    --pooled_available_[shard];
  } else {
    ++connections_opened_;
    co_await net_.deliver(client_, server, cfg_.connect_bytes);
    co_await net_.deliver(server, client_, cfg_.connect_bytes);
  }

  co_await net_.deliver(client_, server, cfg_.query_bytes);
  QueryResult res = co_await db_.execute(std::move(q));
  co_await fetch_result(server, res.rows.size(), res.wire_bytes());

  if (cfg_.pool_connections) ++pooled_available_[shard];
  co_return res;
}

sim::Task<void> JdbcClient::shard_leg(std::size_t shard, Query q, Database::ShardSlice slice) {
  const net::NodeId server = db_.shard_node(shard);

  bool have_connection = cfg_.pool_connections && pooled_available_[shard] > 0;
  if (have_connection) {
    --pooled_available_[shard];
  } else {
    ++connections_opened_;
    co_await net_.deliver(client_, server, cfg_.connect_bytes);
    co_await net_.deliver(server, client_, cfg_.connect_bytes);
  }

  co_await net_.deliver(client_, server, cfg_.query_bytes);
  co_await db_.consume_shard(shard, q, slice.rows);
  co_await fetch_result(server, slice.rows, slice.bytes);

  if (cfg_.pool_connections) ++pooled_available_[shard];
}

sim::Task<void> JdbcClient::fetch_result(net::NodeId server, std::size_t rows,
                                         net::Bytes bytes) {
  // First batch rides on the query response.
  const auto n = static_cast<std::int64_t>(rows);
  const auto fetch = static_cast<std::int64_t>(cfg_.fetch_size);
  std::int64_t batches = n <= fetch ? 1 : (n + fetch - 1) / fetch;
  net::Bytes per_batch = batches > 0 ? bytes / batches : bytes;
  co_await net_.deliver(server, client_, per_batch + 32);
  for (std::int64_t b = 1; b < batches; ++b) {
    ++fetch_round_trips_;
    co_await net_.deliver(client_, server, cfg_.fetch_request_bytes);
    co_await net_.deliver(server, client_, per_batch + 32);
  }
}

}  // namespace mutsvc::db
