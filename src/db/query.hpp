#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "db/value.hpp"
#include "net/types.hpp"

namespace mutsvc::db {

enum class QueryKind {
  kPkLookup,       // SELECT * WHERE pk = ?
  kFinder,         // SELECT * WHERE col = ?   (entity-bean home finder)
  kAggregate,      // registered multi-table/aggregate query
  kKeywordSearch,  // SELECT * WHERE col LIKE %kw%
  kUpdate,         // single-column UPDATE WHERE pk = ?
  kInsert,
  kDelete,
};

[[nodiscard]] inline const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kPkLookup: return "pk-lookup";
    case QueryKind::kFinder: return "finder";
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kKeywordSearch: return "keyword-search";
    case QueryKind::kUpdate: return "update";
    case QueryKind::kInsert: return "insert";
    case QueryKind::kDelete: return "delete";
  }
  return "?";
}

/// A declarative query description. Aggregates are referenced by the name
/// they were registered under on the Database (apps register their own).
struct Query {
  QueryKind kind = QueryKind::kPkLookup;
  std::string table;
  std::int64_t pk = 0;
  std::string column;
  Value value = std::int64_t{0};
  std::string keyword;
  Row row;                     // insert payload
  std::string aggregate_name;  // aggregate queries
  std::vector<Value> params;

  [[nodiscard]] static Query pk_lookup(std::string table, std::int64_t pk) {
    Query q;
    q.kind = QueryKind::kPkLookup;
    q.table = std::move(table);
    q.pk = pk;
    return q;
  }

  [[nodiscard]] static Query finder(std::string table, std::string column, Value v) {
    Query q;
    q.kind = QueryKind::kFinder;
    q.table = std::move(table);
    q.column = std::move(column);
    q.value = std::move(v);
    return q;
  }

  [[nodiscard]] static Query aggregate(std::string name, std::vector<Value> params = {}) {
    Query q;
    q.kind = QueryKind::kAggregate;
    q.aggregate_name = std::move(name);
    q.params = std::move(params);
    return q;
  }

  [[nodiscard]] static Query keyword_search(std::string table, std::string column,
                                            std::string keyword) {
    Query q;
    q.kind = QueryKind::kKeywordSearch;
    q.table = std::move(table);
    q.column = std::move(column);
    q.keyword = std::move(keyword);
    return q;
  }

  [[nodiscard]] static Query update(std::string table, std::int64_t pk, std::string column,
                                    Value v) {
    Query q;
    q.kind = QueryKind::kUpdate;
    q.table = std::move(table);
    q.pk = pk;
    q.column = std::move(column);
    q.value = std::move(v);
    return q;
  }

  [[nodiscard]] static Query insert(std::string table, Row row) {
    Query q;
    q.kind = QueryKind::kInsert;
    q.table = std::move(table);
    q.row = std::move(row);
    return q;
  }

  [[nodiscard]] static Query del(std::string table, std::int64_t pk) {
    Query q;
    q.kind = QueryKind::kDelete;
    q.table = std::move(table);
    q.pk = pk;
    return q;
  }

  /// Eligible for edge query caching (§4.4). Keyword searches are "highly
  /// customized aggregate queries [whose] caching is typically ineffective"
  /// (§6) and always execute at the database server.
  [[nodiscard]] bool is_cacheable() const {
    return kind == QueryKind::kFinder || kind == QueryKind::kAggregate;
  }

  [[nodiscard]] bool is_read() const {
    return kind == QueryKind::kPkLookup || kind == QueryKind::kFinder ||
           kind == QueryKind::kAggregate || kind == QueryKind::kKeywordSearch;
  }

  /// Stable identity string; used as the query-cache key (§4.4).
  ///
  /// Injective: `kind:table:aggregate:column:pk:keyword` followed by one
  /// `#i<int>`, `#r<real>` or `#t<text>` per value. Reals print in their
  /// shortest exact (round-trip) form; a `:`, `#` or `\` inside any text
  /// field is escaped with a `\`, so no text can forge a separator.
  [[nodiscard]] std::string cache_key() const {
    std::string key;
    key.reserve(64);
    key += to_string(kind);
    for (const std::string* field : {&table, &aggregate_name, &column}) {
      key += ':';
      append_escaped(key, *field);
    }
    key += ':';
    append_number(key, pk);
    key += ':';
    append_escaped(key, keyword);
    auto emit = [&key](const Value& v) {
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        key += "#i";
        append_number(key, *i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        key += "#r";
        append_number(key, *d);
      } else {
        key += "#t";
        append_escaped(key, std::get<std::string>(v));
      }
    };
    emit(value);
    for (const auto& p : params) emit(p);
    return key;
  }

 private:
  static void append_escaped(std::string& out, std::string_view text) {
    for (char c : text) {
      if (c == ':' || c == '#' || c == '\\') out += '\\';
      out += c;
    }
  }

  template <class N>
  static void append_number(std::string& out, N n) {
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, n);
    out.append(buf, r.ptr);
  }
};

/// A statement's result: shared row versions (a read copies no row).
struct QueryResult {
  std::vector<RowRef> rows;
  std::int64_t affected = 0;

  [[nodiscard]] net::Bytes wire_bytes() const {
    net::Bytes total = 16;  // status/metadata
    for (const auto& r : rows) total += wire_size(*r);
    return total;
  }
};

}  // namespace mutsvc::db
