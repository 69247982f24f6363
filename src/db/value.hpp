#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace mutsvc::db {

/// A cell value. Kept deliberately small: the applications only need
/// integers, reals, and text.
using Value = std::variant<std::int64_t, double, std::string>;

using Row = std::vector<Value>;

/// A shared, immutable row version: what every read hands out instead of a
/// copy. A table keeps one per stored row and replaces it on every write
/// (copy-on-write), so a holder — a query result, a replica entry, a queued
/// update — keeps the version it was given while the table moves on.
///
/// Nullable (a missing row); `*` and `->` read the row. The reference count
/// is a plain integer: a trial never crosses threads (DESIGN §10). Only
/// `make` builds one, from an owned row, so no read path copies a row by
/// accident.
class RowRef {
 public:
  RowRef() noexcept = default;
  RowRef(const RowRef& o) noexcept : node_(o.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  RowRef(RowRef&& o) noexcept : node_(o.node_) { o.node_ = nullptr; }
  RowRef& operator=(RowRef o) noexcept {
    std::swap(node_, o.node_);
    return *this;
  }
  ~RowRef() {
    if (node_ != nullptr && --node_->refs == 0) delete node_;
  }

  /// The version holding `row`, whose first holder is the result.
  [[nodiscard]] static RowRef make(Row row) {
    RowRef r;
    r.node_ = new Node{std::move(row), 1};
    return r;
  }

  [[nodiscard]] const Row& operator*() const noexcept { return node_->row; }
  [[nodiscard]] const Row* operator->() const noexcept { return &node_->row; }
  [[nodiscard]] explicit operator bool() const noexcept { return node_ != nullptr; }

 private:
  struct Node {
    Row row;
    std::size_t refs;
  };
  Node* node_ = nullptr;
};

[[nodiscard]] inline std::int64_t as_int(const Value& v) { return std::get<std::int64_t>(v); }
[[nodiscard]] inline double as_real(const Value& v) { return std::get<double>(v); }
[[nodiscard]] inline const std::string& as_text(const Value& v) {
  return std::get<std::string>(v);
}

enum class ColumnType { kInt, kReal, kText };

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
};

[[nodiscard]] inline bool matches_type(const Value& v, ColumnType t) {
  switch (t) {
    case ColumnType::kInt: return std::holds_alternative<std::int64_t>(v);
    case ColumnType::kReal: return std::holds_alternative<double>(v);
    case ColumnType::kText: return std::holds_alternative<std::string>(v);
  }
  return false;
}

/// Approximate wire size of a value, used by the JDBC model to estimate
/// result-set transfer sizes.
[[nodiscard]] inline std::int64_t wire_size(const Value& v) {
  if (std::holds_alternative<std::int64_t>(v)) return 8;
  if (std::holds_alternative<double>(v)) return 8;
  return static_cast<std::int64_t>(std::get<std::string>(v).size()) + 4;
}

[[nodiscard]] inline std::int64_t wire_size(const Row& r) {
  std::int64_t total = 0;
  for (const auto& v : r) total += wire_size(v);
  return total;
}

}  // namespace mutsvc::db
