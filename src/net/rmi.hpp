#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include <string>

#include "net/network.hpp"
#include "net/resilience.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "stats/metrics.hpp"
#include "stats/trace.hpp"

namespace mutsvc::net {

struct RmiConfig {
  Bytes call_overhead = 300;   // marshalled method descriptor + headers
  Bytes reply_overhead = 200;

  /// §4.2: "RMI can require more than one round trip for a single method
  /// invocation ... mainly due to ping packets and distributed garbage
  /// collection" [Campadello et al.]. Fraction of calls paying one extra
  /// small round trip.
  double extra_rtt_prob = 0.25;

  /// §4.3: "more than half of the data traffic incurred by RMI is due to
  /// distributed garbage collection" — multiplier on transferred bytes.
  double dgc_traffic_factor = 2.0;
  Bytes ping_bytes = 64;

  /// One JNDI lookup / stub-creation exchange (amortized away by the
  /// EJBHomeFactory pattern; see comp::StubCache).
  Bytes stub_request = 200;
  Bytes stub_response = 1024;
};

/// Remote Method Invocation cost model over pooled container-to-container
/// connections (no per-call TCP handshake).
///
/// When a ResilienceConfig is enabled, every remote call runs under the
/// resilience policy: per-attempt timeout (lost messages are silent — the
/// caller waits out the timeout before retrying), bounded retries with
/// exponential backoff + jitter, and a per-destination circuit breaker.
/// Server work executes at most once per call: a retry whose predecessor
/// completed the work but lost the reply only replays the exchange
/// (idempotent replay, the reply is served from the completed execution).
class RmiTransport {
 public:
  RmiTransport(Network& net, RmiConfig cfg = {})
      : net_(net), cfg_(cfg), rng_(net.simulator().rng().fork("rmi")) {}

  RmiTransport(const RmiTransport&) = delete;
  RmiTransport& operator=(const RmiTransport&) = delete;

  /// One remote invocation: marshal + request, server-side work
  /// (caller-provided; it returns the reply payload size, which is only
  /// known once the work has run), reply. Local (same-node) calls are free
  /// at this layer; the container adds local dispatch cost. With a
  /// TraceSink the transport opens an inclusive caller -> callee span
  /// around the whole call (retries, backoff and timeout waits included)
  /// and accounts the exclusive wire time — elapsed minus server work —
  /// under SpanKind::kRmiWire; spans opened by the server work become
  /// children.
  [[nodiscard]] sim::Task<void> call(NodeId caller, NodeId callee, Bytes args,
                                     std::function<sim::Task<Bytes>()> server_work,
                                     stats::TraceSink* trace = nullptr);

  /// One stub-acquisition exchange (JNDI lookup or initial remote-stub
  /// creation). Costs one round trip.
  [[nodiscard]] sim::Task<void> stub_exchange(NodeId caller, NodeId callee,
                                              stats::TraceSink* trace = nullptr);

  /// Switches the extra-RTT / backoff randomness from the shared "rmi"
  /// stream to one forked stream per caller node ("rmi-node-<i>"). Forking
  /// is a pure function of the root seed and the name, so each node's draw
  /// sequence is fixed regardless of how calls from different nodes
  /// interleave. Call before issuing traffic.
  void partition_streams(std::size_t node_count);

  /// Installs the resilience policy. Call before issuing traffic.
  void set_resilience(ResilienceConfig res) { res_ = res; }
  [[nodiscard]] const ResilienceConfig& resilience() const { return res_; }

  /// Mirrors the resilience counters (retries, timeouts, failed calls,
  /// breaker rejections and state transitions) into `m` live, at the event
  /// that bumps them. Names are `<prefix>retries`, `<prefix>breaker.opened`,
  /// ... Null detaches.
  void set_metrics(stats::MetricsRegistry* m, std::string prefix = "rmi.") {
    metrics_ = m;
    metrics_prefix_ = std::move(prefix);
    sync_metrics();
  }

  /// True when a call to `callee` made now would be rejected by its open
  /// circuit breaker — callers can skip doomed work and degrade instead.
  [[nodiscard]] bool fast_fail(NodeId callee) const {
    if (!res_.enabled) return false;
    auto it = breakers_.find(callee);
    return it != breakers_.end() && it->second.would_reject(net_.simulator().now());
  }

  /// Breaker for `callee` (created on first use).
  [[nodiscard]] CircuitBreaker& breaker(NodeId callee);

  [[nodiscard]] const RmiConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t remote_calls() const { return remote_calls_; }
  [[nodiscard]] std::uint64_t extra_round_trips() const { return extra_round_trips_; }
  [[nodiscard]] std::uint64_t stub_exchanges() const { return stub_exchanges_; }

  // --- resilience accounting ----------------------------------------------
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t failed_calls() const { return failed_calls_; }
  [[nodiscard]] std::uint64_t breaker_rejections() const { return breaker_rejections_; }
  [[nodiscard]] std::uint64_t breaker_opens() const;
  [[nodiscard]] std::uint64_t breaker_half_opens() const;
  [[nodiscard]] std::uint64_t breaker_closes() const;

 private:
  /// One wire attempt: extra-RTT draw, request, `server_work` (awaited
  /// once the request has arrived), reply.
  [[nodiscard]] sim::Task<void> attempt(NodeId caller, NodeId callee, Bytes args,
                                        sim::Task<Bytes> server_work);

  [[nodiscard]] sim::Duration backoff_delay(NodeId caller, int attempt_no);

  /// Randomness source for a call issued by `caller`: the node's own
  /// stream once partition_streams() ran, the shared legacy stream before.
  [[nodiscard]] sim::RngStream& stream_for(NodeId caller) {
    const std::size_t i = caller.value();
    return i < node_rngs_.size() ? node_rngs_[i] : rng_;
  }

  /// Pushes the current resilience counters into the attached registry.
  void sync_metrics();

  Network& net_;
  RmiConfig cfg_;
  ResilienceConfig res_;
  sim::RngStream rng_;
  std::vector<sim::RngStream> node_rngs_;  // indexed by caller node id
  std::map<NodeId, CircuitBreaker> breakers_;
  std::uint64_t calls_ = 0;
  std::uint64_t remote_calls_ = 0;
  std::uint64_t extra_round_trips_ = 0;
  std::uint64_t stub_exchanges_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t failed_calls_ = 0;
  std::uint64_t breaker_rejections_ = 0;
  stats::MetricsRegistry* metrics_ = nullptr;
  std::string metrics_prefix_ = "rmi.";
};

}  // namespace mutsvc::net
