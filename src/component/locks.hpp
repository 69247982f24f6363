#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/resource.hpp"
#include "sim/simcheck.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::comp {

/// Per-entity-instance exclusive locks.
///
/// Models the container's transactional serialization on entity beans: a
/// write transaction holds the (entity, pk) lock until commit — including,
/// under blocking push (§4.3), the wide-area propagation, which is exactly
/// the reduced-concurrency effect the paper warns about.
///
/// Mutexes are created on first acquire and evicted again on the release
/// that leaves them unlocked and uncontended, so the table tracks live
/// locks, not every key ever written (a long benchmark run touches millions
/// of distinct keys). Each mutex lives in its map node (nodes are stable),
/// and an uncontended mutex allocates nothing, so an acquisition costs one
/// node.
///
/// Under MUTSVC_SIMCHECK the acquire/release pair feeds the sanitizer's
/// wait-for graph: `actor` identifies the owning transaction, and a cycle
/// among waiters (or a re-entrant acquire) fails fast instead of hanging
/// the simulation.
class LockManager {
 public:
  explicit LockManager(sim::Simulator& sim) : sim_(sim) {}

  using Key = std::pair<std::string, std::int64_t>;

  // simlint:allow(lock-balance) — this IS the lock API; callers pair it with release().
  [[nodiscard]] sim::Task<void> acquire(const Key& key, simcheck::ActorId actor = 0) {
    ++acquisitions_;
    sim::SimMutex& m = mutex_for(key);
    if (m.locked()) ++contended_;
    if (simcheck::enabled()) {
      if (actor == 0) actor = simcheck::anonymous_actor();
      const simcheck::LockId id = simcheck::intern_lock(lock_name(key));
      simcheck::on_lock_request(actor, id);
      co_await m.acquire();
      simcheck::on_lock_acquired(actor, id);
    } else {
      co_await m.acquire();
    }
  }

  void release(const Key& key) {
    auto it = locks_.find(key);
    if (it == locks_.end()) {
      throw std::logic_error("LockManager::release: no mutex for key " + lock_name(key));
    }
    it->second.release();
    if (simcheck::enabled()) simcheck::on_lock_released(simcheck::intern_lock(lock_name(key)));
    // Evict once unlocked and uncontended. A release that handed the slot to
    // a queued waiter leaves the mutex locked, so contended entries survive.
    if (!it->second.locked() && it->second.queue_length() == 0) locks_.erase(it);
  }

  [[nodiscard]] bool is_locked(const Key& key) const {
    auto it = locks_.find(key);
    return it != locks_.end() && it->second.locked();
  }

  /// Number of currently held locks (the sanitizer's wait-for graph and
  /// tests use this to check holder bookkeeping).
  [[nodiscard]] std::size_t held_count() const {
    std::size_t n = 0;
    for (const auto& [key, m] : locks_) {
      if (m.locked()) ++n;
    }
    return n;
  }

  /// Mutex-table size (eviction keeps this at live locks, not keys ever seen).
  [[nodiscard]] std::size_t tracked_mutexes() const { return locks_.size(); }

  [[nodiscard]] std::uint64_t acquisitions() const { return acquisitions_; }
  [[nodiscard]] std::uint64_t contended_acquisitions() const { return contended_; }

  [[nodiscard]] static std::string lock_name(const Key& key) {
    return key.first + ":" + std::to_string(key.second);
  }

 private:
  sim::SimMutex& mutex_for(const Key& key) { return locks_.try_emplace(key, sim_).first->second; }

  sim::Simulator& sim_;
  std::map<Key, sim::SimMutex> locks_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
};

}  // namespace mutsvc::comp
