#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "net/types.hpp"

namespace mutsvc::comp {

/// Tracks which (caller node, component) pairs already hold RMI stubs.
///
/// Without the EJBHomeFactory pattern (§4.2), every remote invocation pays
/// a JNDI home lookup round trip; with it, home stubs are cached after the
/// first call and remote stubs of stateless façades are pooled too.
class StubCache {
 public:
  /// Returns true if a stub exchange is needed (and records the stub as
  /// cached for next time).
  bool need_stub_exchange(net::NodeId caller, const std::string& component) {
    if (!cached_.emplace(caller, component).second) {
      ++hits_;
      return false;
    }
    ++misses_;
    return true;
  }

  /// Drops every cached stub (container cold start).
  void clear() { cached_.clear(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::set<std::pair<net::NodeId, std::string>> cached_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mutsvc::comp
