#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/value.hpp"
#include "net/types.hpp"

namespace mutsvc::cache {

/// One entity-state change pushed from a read-write bean to its read-only
/// replicas (§4.3). Carries the full new row (the version committed); the
/// "transfer only changed fields" optimization is modelled by
/// UpdateBatch::wire_bytes.
struct EntityUpdate {
  std::string entity;
  std::int64_t pk = 0;
  db::RowRef row;
  std::uint64_t version = 0;
};

/// One refreshed query result pushed to edge query caches (§4.4, push
/// protocol), or an invalidation when `rows` is empty and `invalidate_only`.
struct QueryRefresh {
  std::string cache_key;
  std::vector<db::RowRef> rows;
  std::uint64_t version = 0;
  bool invalidate_only = false;
};

/// Everything one committed transaction needs to propagate to one edge —
/// sent as a single bulk façade call ("updates to read-only beans and query
/// caches are made in one bulk RMI call", §4.4).
struct UpdateBatch {
  std::vector<EntityUpdate> entities;
  std::vector<QueryRefresh> queries;

  [[nodiscard]] bool empty() const { return entities.empty() && queries.empty(); }

  /// Approximate marshalled size. `delta_encoding` models the §4.3
  /// optimization of sending only modified fields.
  [[nodiscard]] net::Bytes wire_bytes(bool delta_encoding = false) const {
    net::Bytes total = 64;
    for (const auto& e : entities) {
      net::Bytes row_bytes = db::wire_size(*e.row);
      total += 32 + (delta_encoding ? row_bytes / 4 : row_bytes);
    }
    for (const auto& q : queries) {
      total += 48;
      if (!q.invalidate_only) {
        for (const auto& r : q.rows) total += db::wire_size(*r);
      }
    }
    return total;
  }
};

}  // namespace mutsvc::cache
