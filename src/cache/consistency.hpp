#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

namespace mutsvc::cache {

/// An entity instance's version key: the runtime's dense entity id and the
/// primary key.
struct EntityKey {
  std::uint32_t entity = 0;
  std::int64_t pk = 0;

  bool operator==(const EntityKey&) const = default;
};

struct EntityKeyHash {
  std::size_t operator()(const EntityKey& k) const noexcept {
    // splitmix64 finalizer over the packed pair.
    std::uint64_t x = static_cast<std::uint64_t>(k.pk) * 0x9e3779b97f4a7c15ULL + k.entity;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Tracks the master version of every entity and query result, and counts
/// how often edge reads observed stale state.
///
/// §4.3's blocking push promises *zero staleness* ("a read operation that
/// arrives after a previous write has committed will always read the
/// correct value"); §4.5 deliberately gives that up. This tracker turns the
/// claim into a measurable invariant: tests assert stale_reads() == 0 under
/// blocking push, and the staleness ablation bench quantifies the async
/// trade-off.
///
/// Two key spaces share the accounting: entity instances (EntityKey) and
/// string keys (query results' cache keys).
class ConsistencyTracker {
 public:
  /// Bumps and returns the master version for string key `key`.
  std::uint64_t bump(const std::string& key) {
    const std::uint64_t v = allocate(key);
    advance_to(key, v);
    return v;
  }

  /// Reserves the next version for `key` without advancing the readable
  /// master. Concurrent transactions affecting the same key each get a
  /// distinct, monotonically increasing version — the propagation protocol
  /// installs them at replicas first and only then advances the master
  /// (advance_to), which is what makes blocking push zero-staleness even
  /// under write-write concurrency on a shared query key.
  std::uint64_t allocate(const std::string& key) { return queries_.allocate(key); }
  std::uint64_t allocate(const EntityKey& key) { return entities_.allocate(key); }

  /// Advances the readable master version to at least `v`.
  void advance_to(const std::string& key, std::uint64_t v) { queries_.advance_to(key, v); }
  void advance_to(const EntityKey& key, std::uint64_t v) { entities_.advance_to(key, v); }

  /// Keys with a version allocated but not yet advanced to (in-flight
  /// transactions). Bounded by concurrency, not by keys ever written.
  [[nodiscard]] std::size_t pending_allocations() const {
    return queries_.allocated.size() + entities_.allocated.size();
  }

  [[nodiscard]] std::uint64_t master_version(const std::string& key) const {
    return queries_.master(key);
  }
  [[nodiscard]] std::uint64_t master_version(const EntityKey& key) const {
    return entities_.master(key);
  }

  /// Records that a read observed `seen_version` for `key`.
  void observe_read(const std::string& key, std::uint64_t seen_version) {
    observe(master_version(key), seen_version);
  }
  void observe_read(const EntityKey& key, std::uint64_t seen_version) {
    observe(master_version(key), seen_version);
  }

  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t stale_reads() const { return stale_reads_; }

  [[nodiscard]] double stale_fraction() const {
    return reads_ == 0 ? 0.0 : static_cast<double>(stale_reads_) / static_cast<double>(reads_);
  }

  /// Mean number of versions a stale read lagged behind the master.
  [[nodiscard]] double mean_version_lag() const {
    return stale_reads_ == 0 ? 0.0
                             : static_cast<double>(lag_sum_) / static_cast<double>(stale_reads_);
  }

  void reset_read_stats() {
    reads_ = 0;
    stale_reads_ = 0;
    lag_sum_ = 0;
  }

 private:
  /// One key space's master and allocated versions.
  template <class Key, class Hash>
  struct Versions {
    std::unordered_map<Key, std::uint64_t, Hash> versions;
    std::unordered_map<Key, std::uint64_t, Hash> allocated;

    [[nodiscard]] std::uint64_t master(const Key& key) const {
      auto it = versions.find(key);
      return it == versions.end() ? 0 : it->second;
    }

    std::uint64_t allocate(const Key& key) {
      std::uint64_t& a = allocated[key];
      a = std::max(a, master(key)) + 1;
      return a;
    }

    void advance_to(const Key& key, std::uint64_t v) {
      std::uint64_t& m = versions[key];
      m = std::max(m, v);
      // Reclaim the allocation entry once the master has caught up with
      // every version handed out for this key: allocate() re-derives from
      // the master, so the entry only needs to outlive in-flight
      // transactions.
      auto it = allocated.find(key);
      if (it != allocated.end() && it->second <= m) allocated.erase(it);
    }
  };

  void observe(std::uint64_t master, std::uint64_t seen_version) {
    ++reads_;
    if (seen_version < master) {
      ++stale_reads_;
      lag_sum_ += master - seen_version;
    }
  }

  Versions<std::string, std::hash<std::string>> queries_;
  Versions<EntityKey, EntityKeyHash> entities_;
  std::uint64_t reads_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t lag_sum_ = 0;
};

}  // namespace mutsvc::cache
