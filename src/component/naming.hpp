#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"

namespace mutsvc::comp {

/// Tracks which (caller node, component id) pairs already hold RMI stubs.
///
/// Without the EJBHomeFactory pattern (§4.2), every remote invocation pays
/// a JNDI home lookup round trip; with it, home stubs are cached after the
/// first call and remote stubs of stateless façades are pooled too.
class StubCache {
 public:
  /// Returns true if a stub exchange is needed (and records the stub as
  /// cached for next time).
  bool need_stub_exchange(net::NodeId caller, std::uint32_t component) {
    if (caller.value() >= cached_.size()) cached_.resize(caller.value() + 1);
    std::vector<bool>& row = cached_[caller.value()];
    if (component >= row.size()) row.resize(component + 1, false);
    if (row[component]) {
      ++hits_;
      return false;
    }
    row[component] = true;
    ++misses_;
    return true;
  }

  /// Drops every cached stub (container cold start).
  void clear() { cached_.clear(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::vector<std::vector<bool>> cached_;  // [caller node][component id]
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mutsvc::comp
