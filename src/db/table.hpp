#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "db/value.hpp"

namespace mutsvc::db {

/// Transparent strict-weak order over index keys. Values order by
/// alternative rank (int < real < text — the variant's own order) and then
/// by value; the heterogeneous overloads let probes compare raw integers
/// and string views against stored keys without materializing a `Value`
/// (and, before this comparator, a formatted `std::string` key) per lookup.
struct ValueLess {
  using is_transparent = void;

  bool operator()(const Value& a, const Value& b) const { return a < b; }

  bool operator()(const Value& a, std::int64_t b) const {
    const auto* i = std::get_if<std::int64_t>(&a);
    return i != nullptr && *i < b;  // non-int ranks above every int
  }
  bool operator()(std::int64_t a, const Value& b) const {
    const auto* i = std::get_if<std::int64_t>(&b);
    return i == nullptr || a < *i;
  }
  bool operator()(const Value& a, std::string_view b) const {
    const auto* s = std::get_if<std::string>(&a);
    return s == nullptr || *s < b;  // non-text ranks below every text
  }
  bool operator()(std::string_view a, const Value& b) const {
    const auto* s = std::get_if<std::string>(&b);
    return s != nullptr && a < *s;
  }
};

/// One relational table with an integer primary key (column 0) and optional
/// secondary indexes on other columns.
///
/// Each stored row is an immutable version (`RowRef`); every read hands out
/// the version and every write swaps in a new one, so a handle taken before
/// a write keeps reading the values it was given.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  // Index entries point into this table's own row map, and a copy would
  // share the versions' non-atomic counts: tables move, never copy.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Column>& columns() const { return columns_; }
  [[nodiscard]] std::size_t column_index(const std::string& col) const;

  /// Builds a secondary index on `col`; existing rows are indexed.
  void create_index(const std::string& col);
  [[nodiscard]] bool has_index(const std::string& col) const;

  void insert(Row row);

  /// Replaces the row with the given primary key; throws if absent.
  void update(std::int64_t pk, Row row);

  /// Single-column update: a new version with `col` replaced; throws if the
  /// row is absent.
  void update_column(std::int64_t pk, const std::string& col, Value v);

  /// Drops the table's reference; handles already taken keep the row.
  bool erase(std::int64_t pk);

  /// The row's current version, or null when absent.
  [[nodiscard]] RowRef get(std::int64_t pk) const;
  [[nodiscard]] bool contains(std::int64_t pk) const { return rows_.contains(pk); }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::int64_t max_pk() const { return rows_.empty() ? 0 : rows_.rbegin()->first; }

  /// All rows whose `col` equals `v`. Uses a secondary index when present
  /// (result pre-reserved, rows read through the index's row pointers — no
  /// per-match primary-key re-lookup); falls back to a full scan.
  [[nodiscard]] std::vector<RowRef> find_equal(const std::string& col, const Value& v) const;

  /// Visits each matching row's version without building a result, in
  /// primary-key-insertion order for indexed columns and primary-key order
  /// for scans — the same order find_equal returns. Used by the query layer
  /// (aggregates) to filter/join, keeping only the handles it needs.
  template <class Fn>
  void for_each_equal(const std::string& col, const Value& v, Fn&& fn) const {
    auto idx_it = indexes_.find(col);
    if (idx_it != indexes_.end()) {
      auto [lo, hi] = idx_it->second.equal_range(v);
      for (auto it = lo; it != hi; ++it) fn(*it->second.row);
      return;
    }
    const std::size_t ci = column_index(col);
    for (const auto& [pk, row] : rows_) {
      if ((*row)[ci] == v) fn(row);
    }
  }

  /// Full scan with predicate (used by keyword search and aggregates).
  [[nodiscard]] std::vector<RowRef> scan(
      const std::function<bool(const Row&)>& predicate) const;

  /// Mean wire size per row (from a sample), for transfer estimation.
  [[nodiscard]] std::int64_t approx_row_bytes() const;

 private:
  /// Index entry: the primary key (for unindexing) plus a direct pointer to
  /// the row's handle in `rows_`. std::map nodes are stable and a write
  /// swaps the handle in place, so the pointer stays valid until the row is
  /// erased (which unindexes first).
  struct IndexEntry {
    std::int64_t pk;
    const RowRef* row;
  };
  using Index = std::multimap<Value, IndexEntry, ValueLess>;

  void index_row(const RowRef& row, std::int64_t pk);
  void unindex_row(const Row& row, std::int64_t pk);

  std::string name_;
  std::vector<Column> columns_;
  std::map<std::int64_t, RowRef> rows_;  // ordered: deterministic scans
  std::unordered_map<std::string, Index> indexes_;  // index name -> value -> entry
};

}  // namespace mutsvc::db
