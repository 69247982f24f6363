#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "net/network.hpp"
#include "net/types.hpp"
#include "stats/trace.hpp"

namespace mutsvc::net {

struct HttpConfig {
  /// The paper did not use keep-alive connections (§4.1), so every request
  /// pays a TCP handshake round trip.
  bool keep_alive = false;
  Bytes handshake_bytes = 64;
  Bytes request_overhead = 350;   // request line + headers
  Bytes response_overhead = 250;  // status line + headers
};

/// HTTP-over-TCP request model.
///
/// One request is: [TCP handshake RTT unless a kept-alive connection
/// exists] + request upload + server-side handling (caller-provided) +
/// response download. This reproduces §4.1's observation that a WAN HTTP
/// access costs two wide-area round trips (~400 ms at 100 ms one-way).
class HttpTransport {
 public:
  explicit HttpTransport(Network& net, HttpConfig cfg = {}) : net_(net), cfg_(cfg) {}

  HttpTransport(const HttpTransport&) = delete;
  HttpTransport& operator=(const HttpTransport&) = delete;

  /// Runs one HTTP request. `handler` executes on the server side and
  /// returns the response body size. With a TraceSink the transport opens
  /// the request's root span (inclusive, client -> server) and accounts the
  /// exclusive wire time — handshake plus transfers, server time excluded —
  /// under SpanKind::kHttpWire.
  [[nodiscard]] sim::Task<void> request(NodeId client, NodeId server, Bytes request_body,
                                        std::function<sim::Task<Bytes>()> handler,
                                        stats::TraceSink* trace = nullptr);

  [[nodiscard]] const HttpConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t handshakes() const { return handshakes_; }

 private:
  Network& net_;
  HttpConfig cfg_;
  // Keep-alive connection pool (unused by the paper, §4.1).
  std::set<std::pair<NodeId, NodeId>> pooled_;
  std::uint64_t requests_ = 0;
  std::uint64_t handshakes_ = 0;
};

}  // namespace mutsvc::net
