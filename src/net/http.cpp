#include "net/http.hpp"

#include <exception>

namespace mutsvc::net {

sim::Task<void> HttpTransport::request(NodeId client, NodeId server, Bytes request_body,
                                       std::function<sim::Task<Bytes>()> handler,
                                       stats::TraceSink* trace) {
  ++requests_;
  const sim::SimTime t0 = net_.simulator().now();
  const std::uint32_t span =
      trace == nullptr ? 0
                       : trace->begin_span(stats::SpanKind::kHttpWire, "http", client.value(),
                                           server.value(), t0);
  sim::Duration server_time = sim::Duration::zero();
  std::exception_ptr err;
  try {
    bool need_handshake = true;
    if (cfg_.keep_alive) {
      auto key = std::make_pair(client, server);
      if (pooled_.contains(key)) {
        need_handshake = false;
      } else {
        pooled_.insert(key);
      }
    }
    if (need_handshake && client != server) {
      ++handshakes_;
      co_await net_.deliver(client, server, cfg_.handshake_bytes);  // SYN
      co_await net_.deliver(server, client, cfg_.handshake_bytes);  // SYN-ACK
    }

    co_await net_.deliver(client, server, cfg_.request_overhead + request_body);
    const sim::SimTime s0 = net_.simulator().now();
    Bytes response_body = co_await handler();
    server_time = net_.simulator().now() - s0;
    co_await net_.deliver(server, client, cfg_.response_overhead + response_body);
  } catch (...) {
    // co_await is illegal in a catch block; close the span outside.
    err = std::current_exception();
  }
  if (trace != nullptr) {
    const sim::SimTime end = net_.simulator().now();
    trace->add(stats::SpanKind::kHttpWire, (end - t0) - server_time);
    trace->end_span(span, end);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace mutsvc::net
