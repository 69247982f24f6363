#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/value.hpp"
#include "net/types.hpp"

namespace mutsvc::workload {

/// One page request a simulated client issues (a row of Tables 2–5).
struct PageRequest {
  std::string page;       // display name used in the results tables
  std::string pattern;    // service usage pattern: "Browser", "Buyer", "Bidder"
  std::string component;  // entry web component
  std::string method;
  std::vector<db::Value> args;
  net::Bytes request_bytes = 350;
  net::Bytes response_bytes = 6 * 1024;
  /// Deterministic per-session routing key, sticky across every page of a
  /// session (canary binding flips route whole sessions, never single
  /// pages). 0 = unkeyed; stamped by the load drivers without consuming
  /// any RNG draws, so pre-placement trajectories are untouched.
  std::uint64_t session_key = 0;
};

/// A *service usage pattern* (§3.2): a frequently executed scenario of
/// service invocation, as one session of the coroutine driver. Scripts
/// produce a logically ordered page sequence (e.g. an Item request always
/// follows the Product it belongs to); returning nullopt ends the session.
/// Apps write each pattern once as a step function and derive their
/// scripts with workload::step_factory (session_fsm.hpp).
class SessionScript {
 public:
  virtual ~SessionScript() = default;
  [[nodiscard]] virtual std::optional<PageRequest> next() = 0;
  [[nodiscard]] virtual const char* pattern() const = 0;
};

using SessionFactory = std::function<std::unique_ptr<SessionScript>()>;

}  // namespace mutsvc::workload
