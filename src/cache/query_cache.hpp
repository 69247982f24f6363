#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/value.hpp"
#include "net/types.hpp"

namespace mutsvc::cache {

/// Edge-server cache of aggregate SQL query results (§4.4).
///
/// Keys are `db::Query::cache_key()` strings, and invalidation is by exact
/// key (a write names the queries it affects). Refresh can be pull (drop,
/// re-execute at the main server on next read) or push (the updater sends
/// new rows).
/// An entry holds the row versions it was filled with, so a hit copies
/// handles, not rows.
class QueryCache {
 public:
  struct Entry {
    std::vector<db::RowRef> rows;
    std::uint64_t version = 0;
  };

  /// The entry for `key` (counted as a hit), or null (a miss). The pointer
  /// is valid until the next mutation of this cache.
  [[nodiscard]] const Entry* get(const std::string& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }

  [[nodiscard]] bool contains(const std::string& key) const { return entries_.contains(key); }

  /// Version-monotonic, like ReadOnlyCache::fill: a pull result that raced
  /// with a concurrent push never clobbers newer state.
  void fill(const std::string& key, std::vector<db::RowRef> rows, std::uint64_t version = 0) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.version > version) return;
    entries_[key] = Entry{std::move(rows), version};
  }

  /// Version-monotonic like `fill`: a JMS push reordered or delayed (e.g.
  /// redelivered after a fault-injector loss) must never clobber newer state
  /// with older rows.
  void apply_push(const std::string& key, std::vector<db::RowRef> rows, std::uint64_t version) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.version > version) {
      ++stale_pushes_rejected_;
      return;
    }
    ++pushes_applied_;
    entries_[key] = Entry{std::move(rows), version};
  }

  void invalidate(const std::string& key) {
    if (entries_.erase(key) > 0) ++invalidations_;
  }

  void clear() { entries_.clear(); }

  /// Zeroes the hit/miss/push/invalidation counters without touching the
  /// entries. Trial harnesses call this at the warm/measure boundary so
  /// per-trial metrics are not cross-contaminated by the warm-up traffic.
  void reset_stats() {
    hits_ = 0;
    misses_ = 0;
    pushes_applied_ = 0;
    invalidations_ = 0;
    stale_pushes_rejected_ = 0;
  }

  /// Key-sorted export of every entry, for migration state transfer (see
  /// ReadOnlyCache::snapshot for the determinism rationale).
  [[nodiscard]] std::vector<std::pair<std::string, Entry>> snapshot() const {
    std::vector<std::pair<std::string, Entry>> out;
    out.reserve(entries_.size());
    // Sorted below, so iteration order cannot leak.  // simlint:allow(unordered-iter)
    for (const auto& [key, entry] : entries_) out.emplace_back(key, entry);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t pushes_applied() const { return pushes_applied_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  [[nodiscard]] std::uint64_t stale_pushes_rejected() const { return stale_pushes_rejected_; }

  [[nodiscard]] double hit_rate() const {
    auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t pushes_applied_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t stale_pushes_rejected_ = 0;
};

}  // namespace mutsvc::cache
