#include "db/database.hpp"

#include <stdexcept>

namespace mutsvc::db {

Table& Database::create_table(std::string name, std::vector<Column> columns) {
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(name, std::move(columns)));
  if (!inserted) throw std::invalid_argument("Database: table exists: " + name);
  return *it->second;
}

Table& Database::table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw std::invalid_argument("Database: no table " + name);
  return *it->second;
}

const Table& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw std::invalid_argument("Database: no table " + name);
  return *it->second;
}

void Database::register_aggregate(std::string name, AggregateFn fn) {
  aggregates_[std::move(name)] = std::move(fn);
}

QueryResult Database::execute_immediate(const Query& q) {
  QueryResult res;
  switch (q.kind) {
    case QueryKind::kPkLookup: {
      if (RowRef row = table(q.table).get(q.pk)) res.rows.push_back(std::move(row));
      break;
    }
    case QueryKind::kFinder: {
      res.rows = table(q.table).find_equal(q.column, q.value);
      break;
    }
    case QueryKind::kAggregate: {
      auto it = aggregates_.find(q.aggregate_name);
      if (it == aggregates_.end()) {
        throw std::invalid_argument("Database: no aggregate " + q.aggregate_name);
      }
      res.rows = it->second(*this, q.params);
      break;
    }
    case QueryKind::kKeywordSearch: {
      Table& t = table(q.table);
      std::size_t ci = t.column_index(q.column);
      res.rows = t.scan([&](const Row& r) {
        return std::holds_alternative<std::string>(r[ci]) &&
               std::get<std::string>(r[ci]).find(q.keyword) != std::string::npos;
      });
      break;
    }
    case QueryKind::kUpdate: {
      table(q.table).update_column(q.pk, q.column, q.value);
      res.affected = 1;
      break;
    }
    case QueryKind::kInsert: {
      table(q.table).insert(q.row);
      res.affected = 1;
      break;
    }
    case QueryKind::kDelete: {
      res.affected = table(q.table).erase(q.pk) ? 1 : 0;
      break;
    }
  }
  return res;
}

sim::Duration Database::cost_of(const Query& q, std::size_t result_rows) const {
  const auto n = static_cast<double>(result_rows);
  switch (q.kind) {
    case QueryKind::kPkLookup: return cost_.pk_lookup;
    case QueryKind::kFinder: return cost_.finder_base + cost_.finder_per_row * n;
    case QueryKind::kAggregate: return cost_.aggregate_base + cost_.aggregate_per_row * n;
    case QueryKind::kKeywordSearch: return cost_.keyword_base + cost_.keyword_per_row * n;
    case QueryKind::kUpdate: return cost_.update;
    case QueryKind::kInsert: return cost_.insert;
    case QueryKind::kDelete: return cost_.del;
  }
  return sim::Duration::zero();
}

std::optional<std::size_t> Database::single_shard(const Query& q) const {
  if (homes_.size() == 1) return 0;
  switch (q.kind) {
    case QueryKind::kPkLookup:
    case QueryKind::kUpdate:
    case QueryKind::kDelete:
      return router_.shard_of(q.pk);
    case QueryKind::kInsert:
      // The inserted row's first column is its primary key (Table::insert
      // enforces this) — the row lands on, and is paid for by, its owner.
      return router_.shard_of(as_int(q.row.at(0)));
    case QueryKind::kFinder:
    case QueryKind::kAggregate:
    case QueryKind::kKeywordSearch:
      return std::nullopt;  // scan class: every shard scans its partition
  }
  return std::nullopt;
}

std::vector<Database::ShardSlice> Database::partition_result(const QueryResult& res) const {
  std::vector<ShardSlice> slices(homes_.size());
  for (std::size_t i = 0; i < res.rows.size(); ++i) {
    const Row& r = *res.rows[i];
    // Rows keyed by an integer first column belong to that key's owner;
    // synthetic aggregate rows (no key column) round-robin by index so the
    // attribution stays deterministic and balanced.
    const std::size_t s = (!r.empty() && std::holds_alternative<std::int64_t>(r[0]))
                              ? router_.shard_of(std::get<std::int64_t>(r[0]))
                              : i % homes_.size();
    slices[s].rows += 1;
    slices[s].bytes += wire_size(r);
  }
  for (ShardSlice& s : slices) s.bytes += 16;  // per-shard result envelope
  return slices;
}

}  // namespace mutsvc::db
