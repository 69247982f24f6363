#include "db/jdbc.hpp"

#include "sim/future.hpp"

namespace mutsvc::db {

sim::Task<QueryResult> JdbcClient::execute(Query q) {
  ++statements_;
  QueryResult res;
  if (std::optional<std::size_t> shard = db_.single_shard(q)) {
    co_await leg(*shard, q, res, nullptr);
    co_return res;
  }
  // Scatter-gather: the logical query runs once (results are identical to a
  // single-shard run), while each shard's leg pays its own connection,
  // query round trip, slice of the service demand, and slice of the result
  // traffic — all legs in flight concurrently, joined in shard order. The
  // statement takes its slowest leg's time, while the service demand per
  // shard node shrinks as shards are added.
  res = db_.execute_immediate(q);
  const std::vector<Database::ShardSlice> slices = db_.partition_result(res);
  std::vector<sim::Task<void>> legs;
  legs.reserve(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) legs.push_back(leg(s, q, res, &slices[s]));
  co_await sim::when_all(net_.simulator(), std::move(legs));
  co_return res;
}

sim::Task<void> JdbcClient::leg(std::size_t shard, const Query& q, QueryResult& res,
                                const Database::ShardSlice* slice) {
  const net::NodeId server = db_.shard_node(shard);

  if (cfg_.pool_connections && pooled_available_[shard] > 0) {
    --pooled_available_[shard];
  } else {
    ++connections_opened_;
    co_await net_.deliver(client_, server, cfg_.connect_bytes);
    co_await net_.deliver(server, client_, cfg_.connect_bytes);
  }

  co_await net_.deliver(client_, server, cfg_.query_bytes);
  Database::ShardSlice whole;
  if (slice == nullptr) {
    res = db_.execute_immediate(q);
    whole.rows = res.rows.size();
    whole.bytes = res.wire_bytes();
    slice = &whole;
  }
  co_await db_.consume_shard(shard, q, slice->rows);
  co_await fetch_result(server, slice->rows, slice->bytes);

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
