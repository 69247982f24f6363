#include "db/table.hpp"

#include <iterator>

namespace mutsvc::db {

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: needs at least one column");
  if (columns_[0].type != ColumnType::kInt) {
    throw std::invalid_argument("Table: primary key (column 0) must be integer");
  }
}

std::size_t Table::column_index(const std::string& col) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == col) return i;
  }
  throw std::invalid_argument("Table " + name_ + ": no column " + col);
}

void Table::create_index(const std::string& col) {
  std::size_t ci = column_index(col);
  auto& idx = indexes_[col];
  idx.clear();
  for (const auto& [pk, row] : rows_) idx.emplace((*row)[ci], IndexEntry{pk, &row});
}

bool Table::has_index(const std::string& col) const { return indexes_.contains(col); }

void Table::insert(Row row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("Table " + name_ + ": wrong arity on insert");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!matches_type(row[i], columns_[i].type)) {
      throw std::invalid_argument("Table " + name_ + ": type mismatch in column " +
                                  columns_[i].name);
    }
  }
  std::int64_t pk = as_int(row[0]);
  if (rows_.contains(pk)) {
    throw std::invalid_argument("Table " + name_ + ": duplicate primary key");
  }
  // Store first, then index: the index holds pointers into the stored row.
  auto [it, inserted] = rows_.emplace(pk, RowRef::make(std::move(row)));
  index_row(it->second, pk);
}

void Table::update(std::int64_t pk, Row row) {
  auto it = rows_.find(pk);
  if (it == rows_.end()) throw std::out_of_range("Table " + name_ + ": update of missing row");
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("Table " + name_ + ": wrong arity on update");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!matches_type(row[i], columns_[i].type)) {
      throw std::invalid_argument("Table " + name_ + ": type mismatch in column " +
                                  columns_[i].name);
    }
  }
  if (as_int(row[0]) != pk) {
    throw std::invalid_argument("Table " + name_ + ": update must not change primary key");
  }
  unindex_row(*it->second, pk);
  it->second = RowRef::make(std::move(row));
  index_row(it->second, pk);
}

void Table::update_column(std::int64_t pk, const std::string& col, Value v) {
  auto it = rows_.find(pk);
  if (it == rows_.end()) throw std::out_of_range("Table " + name_ + ": update of missing row");
  std::size_t ci = column_index(col);
  if (ci == 0) throw std::invalid_argument("Table " + name_ + ": cannot update primary key");
  if (!matches_type(v, columns_[ci].type)) {
    throw std::invalid_argument("Table " + name_ + ": type mismatch in column " + col);
  }
  // Copy-on-write: holders of the current version keep it.
  Row next = *it->second;
  next[ci] = std::move(v);
  unindex_row(*it->second, pk);
  it->second = RowRef::make(std::move(next));
  index_row(it->second, pk);
}

bool Table::erase(std::int64_t pk) {
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  unindex_row(*it->second, pk);
  rows_.erase(it);
  return true;
}

RowRef Table::get(std::int64_t pk) const {
  auto it = rows_.find(pk);
  if (it == rows_.end()) return {};
  return it->second;
}

std::vector<RowRef> Table::find_equal(const std::string& col, const Value& v) const {
  std::vector<RowRef> out;
  auto idx_it = indexes_.find(col);
  if (idx_it != indexes_.end()) {
    auto [lo, hi] = idx_it->second.equal_range(v);
    out.reserve(static_cast<std::size_t>(std::distance(lo, hi)));
    for (auto it = lo; it != hi; ++it) out.push_back(*it->second.row);
    return out;
  }
  std::size_t ci = column_index(col);
  for (const auto& [pk, row] : rows_) {
    if ((*row)[ci] == v) out.push_back(row);
  }
  return out;
}

std::vector<RowRef> Table::scan(const std::function<bool(const Row&)>& predicate) const {
  std::vector<RowRef> out;
  for (const auto& [pk, row] : rows_) {
    if (predicate(*row)) out.push_back(row);
  }
  return out;
}

std::int64_t Table::approx_row_bytes() const {
  if (rows_.empty()) return 64;
  std::int64_t total = 0;
  std::size_t sampled = 0;
  for (const auto& [pk, row] : rows_) {
    total += wire_size(*row);
    if (++sampled >= 16) break;
  }
  return total / static_cast<std::int64_t>(sampled);
}

void Table::index_row(const RowRef& row, std::int64_t pk) {
  for (auto& [col, idx] : indexes_) {
    idx.emplace((*row)[column_index(col)], IndexEntry{pk, &row});
  }
}

void Table::unindex_row(const Row& row, std::int64_t pk) {
  for (auto& [col, idx] : indexes_) {
    auto [lo, hi] = idx.equal_range(row[column_index(col)]);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.pk == pk) {
        idx.erase(it);
        break;
      }
    }
  }
}

}  // namespace mutsvc::db
