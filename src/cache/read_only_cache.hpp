#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/value.hpp"
#include "sim/time.hpp"

namespace mutsvc::cache {

/// The state replica held by a read-only entity bean (§4.3).
///
/// One instance exists per (edge node, entity bean) pair. Entries carry the
/// master's version number at the time they were written, so staleness is
/// observable (ConsistencyTracker) rather than assumed. An entry shares the
/// row version it was filled with; a later master write makes a new version
/// and leaves this one as it was.
class ReadOnlyCache {
 public:
  struct Entry {
    db::RowRef row;
    std::uint64_t version = 0;
    sim::SimTime refreshed_at;  // for §4.3's vendor-style timeout invalidation
  };

  explicit ReadOnlyCache(std::string entity) : entity_(std::move(entity)) {}

  [[nodiscard]] const std::string& entity() const { return entity_; }

  /// The entry for `pk` (counted as a hit), or null (a miss). The pointer is
  /// valid until the next mutation of this cache.
  [[nodiscard]] const Entry* get(std::int64_t pk) {
    auto it = entries_.find(pk);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }

  /// §4.3: "most application server vendors already support some form of
  /// read-only entity beans with a timeout invalidation mechanism". An
  /// entry older than `ttl` counts as a miss (and is dropped); a zero ttl
  /// disables expiry.
  [[nodiscard]] const Entry* get_if_fresh(std::int64_t pk, sim::SimTime now, sim::Duration ttl) {
    auto it = entries_.find(pk);
    if (it != entries_.end() && ttl > sim::Duration::zero() &&
        now - it->second.refreshed_at > ttl) {
      ++timeout_invalidations_;
      entries_.erase(it);
      it = entries_.end();
    }
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }

  [[nodiscard]] bool contains(std::int64_t pk) const { return entries_.contains(pk); }

  /// Installs state fetched by a pull refresh (demand-driven, §4.3).
  /// Version-monotonic: a pull that raced with a concurrent push (fetched
  /// before the write committed, arrived after the push) must not clobber
  /// the newer pushed state.
  void fill(std::int64_t pk, db::RowRef row, std::uint64_t version,
            sim::SimTime now = sim::SimTime::origin()) {
    auto it = entries_.find(pk);
    if (it != entries_.end() && it->second.version > version) {
      ++stale_fills_rejected_;
      return;
    }
    entries_[pk] = Entry{std::move(row), version, now};
  }

  /// Applies a pushed update from the read-write master. Version-monotonic
  /// like `fill`: an async-topic push redelivered late (or reordered by the
  /// fault injector) must not roll the replica back to older state.
  void apply_push(std::int64_t pk, db::RowRef row, std::uint64_t version,
                  sim::SimTime now = sim::SimTime::origin()) {
    auto it = entries_.find(pk);
    if (it != entries_.end() && it->second.version > version) {
      ++stale_pushes_rejected_;
      return;
    }
    ++pushes_applied_;
    entries_[pk] = Entry{std::move(row), version, now};
  }

  /// Programmatic invalidation (the container interface §4.3 mentions).
  void invalidate(std::int64_t pk) {
    ++invalidations_;
    entries_.erase(pk);
  }

  void invalidate_all() {
    ++invalidations_;
    entries_.clear();
  }

  /// Zeroes every counter without touching the entries (see
  /// QueryCache::reset_stats).
  void reset_stats() {
    hits_ = 0;
    misses_ = 0;
    pushes_applied_ = 0;
    invalidations_ = 0;
    stale_fills_rejected_ = 0;
    stale_pushes_rejected_ = 0;
    timeout_invalidations_ = 0;
  }

  /// Key-sorted export of every entry, for migration state transfer. The
  /// sort makes the snapshot independent of unordered_map iteration order,
  /// so transfer traffic is bit-identical across runs and STL
  /// implementations.
  [[nodiscard]] std::vector<std::pair<std::int64_t, Entry>> snapshot() const {
    std::vector<std::pair<std::int64_t, Entry>> out;
    out.reserve(entries_.size());
    // Sorted below, so iteration order cannot leak.  // simlint:allow(unordered-iter)
    for (const auto& [pk, entry] : entries_) out.emplace_back(pk, entry);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t pushes_applied() const { return pushes_applied_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  [[nodiscard]] std::uint64_t stale_fills_rejected() const { return stale_fills_rejected_; }
  [[nodiscard]] std::uint64_t stale_pushes_rejected() const { return stale_pushes_rejected_; }
  [[nodiscard]] std::uint64_t timeout_invalidations() const { return timeout_invalidations_; }

  [[nodiscard]] double hit_rate() const {
    auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  std::string entity_;
  std::unordered_map<std::int64_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t pushes_applied_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t stale_fills_rejected_ = 0;
  std::uint64_t stale_pushes_rejected_ = 0;
  std::uint64_t timeout_invalidations_ = 0;
};

}  // namespace mutsvc::cache
