// Sensitivity sweep S3: scale-out data tier. The same Pet Store workload
// runs against 1, 2, 4, and 8 hash-partitioned database shards; the tables
// stay logically unified, so every configuration must compute *identical*
// query results, while each shard node serves only its slice of the
// service demand — the hottest DB node's busy fraction falls strictly as
// the fleet widens. Self-checking: exits nonzero if the per-shard load
// fails to decrease monotonically or any shard count changes a result.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "bench/table_common.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "db/database.hpp"
#include "stats/table.hpp"

using namespace mutsvc;

namespace {

void fnv(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a digest of a fixed, deterministic query battery against the final
/// database state. Pure data — no timing-sensitive statistics — so it must
/// be bit-identical across shard counts (and MUTSVC_JOBS values).
std::uint64_t result_digest(db::Database& db) {
  std::vector<db::Query> battery;
  for (std::int64_t pk = 1; pk <= 25; ++pk) {
    battery.push_back(db::Query::pk_lookup("item", pk));
    battery.push_back(db::Query::pk_lookup("inventory", pk));
  }
  for (std::int64_t p = 1; p <= 10; ++p) {
    battery.push_back(db::Query::finder("item", "product_id", p));
  }
  battery.push_back(db::Query::finder("orders", "account_id", std::int64_t{1}));

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const db::Query& q : battery) {
    const db::QueryResult res = db.execute_immediate(q);
    fnv(h, res.rows.size());
    for (const db::RowRef& row : res.rows) {
      for (const db::Value& v : *row) {
        if (const auto* i = std::get_if<std::int64_t>(&v)) {
          fnv(h, static_cast<std::uint64_t>(*i));
        } else if (const auto* d = std::get_if<double>(&v)) {
          std::uint64_t bits = 0;
          static_assert(sizeof(bits) == sizeof(*d));
          std::memcpy(&bits, d, sizeof(bits));
          fnv(h, bits);
        } else {
          for (char c : std::get<std::string>(v)) fnv(h, static_cast<unsigned char>(c));
        }
      }
    }
  }
  return h;
}

struct Row {
  std::size_t shards = 0;
  double browser_remote = 0.0;
  double max_shard_busy = 0.0;  // hottest DB node, post-warm-up busy fraction
  double sum_shard_busy = 0.0;  // whole data tier (fan-out overhead shows here)
  std::uint64_t digest = 0;
};

Row run(std::size_t shards) {
  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec = bench::base_spec();
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.shard.shards = shards;
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();

  Row r;
  r.shards = shards;
  r.browser_remote = exp.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);
  for (net::NodeId node : exp.nodes().db_nodes) {
    const double busy = exp.cpu_utilization(node);
    r.max_shard_busy = std::max(r.max_shard_busy, busy);
    r.sum_shard_busy += busy;
  }
  r.digest = result_digest(exp.database());
  return r;
}

}  // namespace

int main() {
  std::cout << "=== Sensitivity S3: hash-sharding the data tier (Pet Store, async) ===\n\n";

  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::vector<std::function<Row()>> trials;
  for (std::size_t shards : shard_counts) {
    trials.push_back([shards] { return run(shards); });
  }
  std::vector<Row> rows = core::sweep::run_trials(std::move(trials));

  stats::TextTable table{{"shards", "remote browser (ms)", "hottest shard busy",
                          "data tier busy (sum)", "result digest"}};
  char digest_hex[32];
  for (const Row& r : rows) {
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.add_row({std::to_string(r.shards), stats::TextTable::cell_ms(r.browser_remote),
                   stats::TextTable::cell_fixed(r.max_shard_busy * 100.0, 2) + "%",
                   stats::TextTable::cell_fixed(r.sum_shard_busy * 100.0, 2) + "%",
                   digest_hex});
  }
  table.print(std::cout);

  bool ok = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].max_shard_busy >= rows[i - 1].max_shard_busy) {
      std::cerr << "FAIL: hottest-shard busy fraction did not decrease from " << rows[i - 1].shards
                << " to " << rows[i].shards << " shards (" << rows[i - 1].max_shard_busy << " -> "
                << rows[i].max_shard_busy << ")\n";
      ok = false;
    }
    if (rows[i].digest != rows[0].digest) {
      std::cerr << "FAIL: query results differ between 1 shard and " << rows[i].shards
                << " shards\n";
      ok = false;
    }
  }
  if (ok) {
    std::cout << "\nCHECK OK: per-shard DB load strictly decreases 1 -> 8 shards and every\n"
              << "shard count computes identical query results (the partition is an\n"
              << "attribution of cost, never of visibility).\n";
  }
  return ok ? 0 : 1;
}
