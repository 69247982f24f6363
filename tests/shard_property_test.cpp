// Property battery for the scale-out data tier (ISSUE 5): over seeded
// random inputs, (1) the ShardRouter is a pure deterministic function of
// (key, shard_count), (2) hash partitioning is total and disjoint — every
// row is served by exactly one shard and fan-out slices account for every
// row and byte exactly once — and (3) the harness conserves requests
// (issued == samples + failures + discarded) across the whole config
// ladder × shard counts.
//
// Test inputs come from fixed-seed host-side generators (never sim-time
// randomness): simlint:allow-file(raw-random)
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "db/database.hpp"
#include "db/query.hpp"
#include "db/shard.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc {
namespace {

using db::Query;
using db::ShardRouter;

// --- Router determinism ------------------------------------------------------

TEST(ShardRouterTest, ZeroShardsThrows) {
  EXPECT_THROW(ShardRouter{0}, std::invalid_argument);
}

TEST(ShardRouterTest, SingleShardMapsEveryKeyToZero) {
  ShardRouter r{1};
  std::mt19937_64 rng{0xfeedULL};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(r.shard_of(static_cast<std::int64_t>(rng())), 0u);
  }
  EXPECT_EQ(r.shard_of(-1), 0u);
  EXPECT_TRUE(r.single());
}

TEST(ShardRouterTest, SameKeySameShardAcrossInstancesAndRuns) {
  // The mapping must be a pure function of (key, shard_count): two
  // independently constructed routers agree on every key, and re-querying
  // the same router never changes the answer.
  for (std::size_t shards : {2u, 3u, 5u, 8u, 16u}) {
    ShardRouter a{shards};
    ShardRouter b{shards};
    std::mt19937_64 rng{0x5eedULL + shards};
    for (int i = 0; i < 5000; ++i) {
      const auto key = static_cast<std::int64_t>(rng());
      const std::size_t s = a.shard_of(key);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, b.shard_of(key));
      EXPECT_EQ(s, a.shard_of(key));  // idempotent
    }
  }
}

TEST(ShardRouterTest, PinnedHashValuesNeverDrift) {
  // Literal expectations catch any accidental change to the splitmix64
  // finalizer or the modulus: rebalancing the whole key space would break
  // the shards=1 golden equivalence far less visibly than this.
  const std::int64_t keys[] = {0, 1, 2, 7, 42, 1000, 123456789, -1};
  const std::size_t want2[] = {1, 1, 0, 1, 1, 0, 1, 0};
  const std::size_t want3[] = {1, 2, 1, 0, 1, 1, 2, 2};
  const std::size_t want5[] = {0, 0, 0, 2, 3, 1, 2, 1};
  const std::size_t want8[] = {7, 1, 6, 7, 5, 0, 1, 0};
  ShardRouter r2{2}, r3{3}, r5{5}, r8{8};
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    EXPECT_EQ(r2.shard_of(keys[i]), want2[i]) << "key " << keys[i];
    EXPECT_EQ(r3.shard_of(keys[i]), want3[i]) << "key " << keys[i];
    EXPECT_EQ(r5.shard_of(keys[i]), want5[i]) << "key " << keys[i];
    EXPECT_EQ(r8.shard_of(keys[i]), want8[i]) << "key " << keys[i];
  }
}

TEST(ShardRouterTest, ConsecutiveKeysSpreadAcrossShards) {
  // The hash exists so the freshly-inserted "hot tail" of consecutive
  // primary keys does not stripe onto one shard: over any window of
  // consecutive keys, every shard owns a non-trivial fraction.
  for (std::size_t shards : {2u, 4u, 8u}) {
    ShardRouter r{shards};
    std::vector<std::size_t> counts(shards, 0);
    const int n = 4000;
    for (int k = 0; k < n; ++k) ++counts[r.shard_of(k)];
    for (std::size_t s = 0; s < shards; ++s) {
      const double frac = static_cast<double>(counts[s]) * static_cast<double>(shards) / n;
      EXPECT_GT(frac, 0.8) << "shard " << s << "/" << shards;
      EXPECT_LT(frac, 1.2) << "shard " << s << "/" << shards;
    }
  }
}

// --- Partition totality / disjointness ---------------------------------------

struct ShardedDb {
  sim::Simulator sim{1};
  net::Topology topo{sim};
  std::vector<net::NodeId> homes;
  std::unique_ptr<db::Database> db;

  explicit ShardedDb(std::size_t shards) {
    const net::NodeId app = topo.add_node("app", net::NodeRole::kAppServer);
    for (std::size_t s = 0; s < shards; ++s) {
      homes.push_back(
          topo.add_node("db-s" + std::to_string(s), net::NodeRole::kDatabaseServer));
      topo.add_link(app, homes.back(), sim::ms(0.2), 100e6);
    }
    db = std::make_unique<db::Database>(topo, homes);
  }
};

db::Row random_row(std::int64_t pk, std::mt19937_64& rng) {
  return db::Row{pk, static_cast<std::int64_t>(rng() % 50),
                 std::string(1 + rng() % 12, 'x'), 1.0 + static_cast<double>(rng() % 100)};
}

std::vector<db::Column> item_columns() {
  return {{"id", db::ColumnType::kInt},
          {"product_id", db::ColumnType::kInt},
          {"name", db::ColumnType::kText},
          {"price", db::ColumnType::kReal}};
}

TEST(ShardPartitionTest, EveryRowServedByExactlyOneShard) {
  // Totality + disjointness: for every populated primary key, the pk-class
  // statements (lookup / update / delete) all resolve to one defined owner
  // shard, that owner agrees with the router, and the per-shard key sets
  // partition the table (their union is everything, pairwise disjoint by
  // functionhood — asserted via exact counts).
  for (std::size_t shards : {2u, 3u, 5u, 8u}) {
    ShardedDb h{shards};
    h.db->create_table("item", item_columns());
    std::mt19937_64 rng{0xabcdULL * shards};
    std::set<std::int64_t> pks;
    while (pks.size() < 500) pks.insert(static_cast<std::int64_t>(rng() % 1000000));
    for (std::int64_t pk : pks) {
      h.db->execute_immediate(Query::insert("item", random_row(pk, rng)));
    }

    std::vector<std::set<std::int64_t>> per_shard(shards);
    for (std::int64_t pk : pks) {
      const auto lookup = h.db->single_shard(Query::pk_lookup("item", pk));
      const auto update = h.db->single_shard(Query::update("item", pk, "price", 2.0));
      const auto del = h.db->single_shard(Query::del("item", pk));
      ASSERT_TRUE(lookup.has_value());
      ASSERT_TRUE(update.has_value());
      ASSERT_TRUE(del.has_value());
      EXPECT_EQ(*lookup, h.db->router().shard_of(pk));
      EXPECT_EQ(*lookup, *update);
      EXPECT_EQ(*lookup, *del);
      ASSERT_LT(*lookup, shards);
      per_shard[*lookup].insert(pk);
    }
    // Union == all keys; per-shard sets are disjoint because shard_of is a
    // function, so the sizes summing to the total proves the partition.
    std::size_t total = 0;
    std::set<std::int64_t> uni;
    for (const auto& s : per_shard) {
      total += s.size();
      uni.insert(s.begin(), s.end());
    }
    EXPECT_EQ(total, pks.size());
    EXPECT_EQ(uni, pks);
  }
}

TEST(ShardPartitionTest, FanOutSlicesAccountForEveryRowAndByteOnce) {
  // Scan-class queries have no single home (nullopt) and instead partition
  // their result: each row lands in exactly the slice of the shard owning
  // its key, slice row counts sum to the result, and slice bytes sum to the
  // payload plus one 16-byte envelope per shard.
  for (std::size_t shards : {1u, 2u, 5u, 8u}) {
    ShardedDb h{shards};
    auto& t = h.db->create_table("item", item_columns());
    t.create_index("product_id");
    std::mt19937_64 rng{0x1234ULL + shards};
    for (std::int64_t pk = 1; pk <= 400; ++pk) {
      db::Row r = random_row(pk, rng);
      r[1] = std::int64_t{7};  // one big finder bucket
      t.insert(std::move(r));
    }

    const Query finder = Query::finder("item", "product_id", std::int64_t{7});
    if (shards == 1) {
      EXPECT_EQ(h.db->single_shard(finder), std::optional<std::size_t>{0});
    } else {
      EXPECT_FALSE(h.db->single_shard(finder).has_value());
    }

    const db::QueryResult res = h.db->execute_immediate(finder);
    ASSERT_EQ(res.rows.size(), 400u);
    const auto slices = h.db->partition_result(res);
    ASSERT_EQ(slices.size(), shards);

    std::vector<std::size_t> expect_rows(shards, 0);
    net::Bytes payload = 0;
    for (const auto& row : res.rows) {
      ++expect_rows[h.db->router().shard_of(db::as_int((*row)[0]))];
      payload += db::wire_size(*row);
    }
    std::size_t rows_total = 0;
    net::Bytes bytes_total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(slices[s].rows, expect_rows[s]) << "shard " << s << "/" << shards;
      rows_total += slices[s].rows;
      bytes_total += slices[s].bytes;
    }
    EXPECT_EQ(rows_total, res.rows.size());
    EXPECT_EQ(bytes_total, payload + static_cast<net::Bytes>(16 * shards));
  }
}

TEST(ShardPartitionTest, QueryResultsIndependentOfShardCount) {
  // The tables stay logically unified: the same battery of queries returns
  // identical rows whether the tier runs 1, 3, or 8 shards.
  std::vector<std::unique_ptr<ShardedDb>> dbs;
  for (std::size_t shards : {1u, 3u, 8u}) {
    auto h = std::make_unique<ShardedDb>(shards);
    auto& t = h->db->create_table("item", item_columns());
    t.create_index("product_id");
    std::mt19937_64 rng{0x77ULL};  // identical population in every instance
    for (std::int64_t pk = 1; pk <= 300; ++pk) t.insert(random_row(pk, rng));
    dbs.push_back(std::move(h));
  }
  std::mt19937_64 qrng{0x99ULL};
  for (int i = 0; i < 200; ++i) {
    Query q;
    switch (qrng() % 3) {
      case 0: q = Query::pk_lookup("item", 1 + static_cast<std::int64_t>(qrng() % 300)); break;
      case 1:
        q = Query::finder("item", "product_id", static_cast<std::int64_t>(qrng() % 50));
        break;
      default: q = Query::keyword_search("item", "name", "xxx"); break;
    }
    const db::QueryResult base = dbs[0]->db->execute_immediate(q);
    for (std::size_t d = 1; d < dbs.size(); ++d) {
      const db::QueryResult got = dbs[d]->db->execute_immediate(q);
      ASSERT_EQ(got.rows.size(), base.rows.size()) << "query " << q.cache_key();
      for (std::size_t r = 0; r < got.rows.size(); ++r) {
        ASSERT_EQ(*got.rows[r], *base.rows[r]) << "query " << q.cache_key() << " row " << r;
      }
      EXPECT_EQ(got.affected, base.affected);
    }
  }
}

// --- Request conservation across the config ladder ---------------------------

struct ConservationCase {
  const char* name;
  core::ConfigLevel level;
  std::size_t shards;
};

const ConservationCase kLadder[] = {
    {"centralized_s1", core::ConfigLevel::kCentralized, 1},
    {"facade_s2", core::ConfigLevel::kRemoteFacade, 2},
    {"state_cache_s3", core::ConfigLevel::kStatefulComponentCaching, 3},
    {"query_cache_s5", core::ConfigLevel::kQueryCaching, 5},
    {"async_s8", core::ConfigLevel::kAsyncUpdates, 8},
};

// gtest would otherwise print the struct as a byte dump of its pointers,
// which address-space randomization changes on every run; the dump lands
// in the ctest test names, so they would differ from build to build.
void PrintTo(const ConservationCase& c, std::ostream* os) { *os << c.name; }

class ConservationLadder : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationLadder, IssuedEqualsCompletedPlusFailed) {
  // Every request the open-loop generator issues is counted exactly once:
  // as a post-warm-up sample, a post-warm-up failure, or a discarded
  // warm-up observation. Sharding must not create or lose requests
  // anywhere on the ladder. Specs are randomized from a fixed
  // seed so each ladder rung exercises a different (seed, rate, duration).
  // (The end-of-run rule counts requests at issue time, so the tail a
  // truncated run leaves awaiting responses shows up as in_flight.)
  const ConservationCase& c = GetParam();
  sim::RngStream rng = sim::RngStream{0xC0817ULL}.fork(c.name);

  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = c.level;
  spec.shard.shards = c.shards;
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  spec.total_request_rate = rng.uniform(18.0, 36.0);
  spec.duration = sim::Duration::seconds(rng.uniform(100.0, 140.0));
  spec.warmup = sim::sec(30);
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();

  const auto& r = exp.results();
  EXPECT_GT(exp.requests_issued(), 0u);
  EXPECT_EQ(exp.requests_issued(),
            r.total_samples() + r.failures() + r.discarded_samples() + exp.requests_in_flight())
      << c.name << ": issued=" << exp.requests_issued()
      << " samples=" << r.total_samples() << " failures=" << r.failures()
      << " discarded=" << r.discarded_samples()
      << " in_flight=" << exp.requests_in_flight();
  // Fault-free ladder runs complete every request.
  EXPECT_EQ(r.failures(), 0u);
  EXPECT_EQ(exp.dropped_requests(), 0u);
  // Async rungs must drain: the run end is far past the last commit's
  // propagation window.
  if (c.level == core::ConfigLevel::kAsyncUpdates) {
    EXPECT_TRUE(exp.runtime().updates_quiescent()) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Ladder, ConservationLadder, ::testing::ValuesIn(kLadder),
                         [](const ::testing::TestParamInfo<ConservationCase>& info) {
                           return std::string{info.param.name};
                         });

TEST(ConservationRubisTest, HoldsForRubisUnderShards) {
  // Second application, harder write mix: same identity.
  apps::rubis::RubisApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.shard.shards = 3;
  spec.duration = sim::sec(120);
  spec.warmup = sim::sec(30);
  spec.seed = 7;
  core::Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();
  const auto& r = exp.results();
  EXPECT_GT(exp.requests_issued(), 0u);
  EXPECT_EQ(exp.requests_issued(),
            r.total_samples() + r.failures() + r.discarded_samples() + exp.requests_in_flight());
  EXPECT_TRUE(exp.runtime().updates_quiescent());
}

}  // namespace
}  // namespace mutsvc
