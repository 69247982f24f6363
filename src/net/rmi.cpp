#include "net/rmi.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "sim/simcheck.hpp"

namespace mutsvc::net {

void RmiTransport::partition_streams(std::size_t node_count) {
  node_rngs_.clear();
  node_rngs_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    node_rngs_.push_back(net_.simulator().rng().fork("rmi-node-" + std::to_string(i)));
  }
}

CircuitBreaker& RmiTransport::breaker(NodeId callee) {
  auto it = breakers_.find(callee);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(callee,
                      CircuitBreaker{res_.breaker_failure_threshold, res_.breaker_open_for})
             .first;
  }
  return it->second;
}

std::uint64_t RmiTransport::breaker_opens() const {
  std::uint64_t n = 0;
  for (const auto& [node, br] : breakers_) n += br.opened();
  return n;
}

std::uint64_t RmiTransport::breaker_half_opens() const {
  std::uint64_t n = 0;
  for (const auto& [node, br] : breakers_) n += br.half_opened();
  return n;
}

std::uint64_t RmiTransport::breaker_closes() const {
  std::uint64_t n = 0;
  for (const auto& [node, br] : breakers_) n += br.closed();
  return n;
}

void RmiTransport::sync_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->set_counter(metrics_prefix_ + "retries", retries_);
  metrics_->set_counter(metrics_prefix_ + "timeouts", timeouts_);
  metrics_->set_counter(metrics_prefix_ + "failed_calls", failed_calls_);
  metrics_->set_counter(metrics_prefix_ + "breaker_rejections", breaker_rejections_);
  metrics_->set_counter(metrics_prefix_ + "breaker.opened", breaker_opens());
  metrics_->set_counter(metrics_prefix_ + "breaker.half_opened", breaker_half_opens());
  metrics_->set_counter(metrics_prefix_ + "breaker.closed", breaker_closes());
}

sim::Duration RmiTransport::backoff_delay(NodeId caller, int attempt_no) {
  double d = res_.backoff_base.as_seconds() * std::pow(res_.backoff_multiplier, attempt_no);
  d = std::min(d, res_.backoff_cap.as_seconds());
  if (res_.backoff_jitter > 0.0) {
    d *= 1.0 + stream_for(caller).uniform(-res_.backoff_jitter, res_.backoff_jitter);
  }
  return sim::Duration::seconds(std::max(d, 0.0));
}

sim::Task<void> RmiTransport::attempt(NodeId caller, NodeId callee, Bytes args,
                                      sim::Task<Bytes> server_work) {
  if (cfg_.extra_rtt_prob > 0.0 && stream_for(caller).bernoulli(cfg_.extra_rtt_prob)) {
    ++extra_round_trips_;
    co_await net_.deliver(caller, callee, cfg_.ping_bytes);
    co_await net_.deliver(callee, caller, cfg_.ping_bytes);
  }
  auto inflate = [&](Bytes b) {
    return static_cast<Bytes>(std::llround(static_cast<double>(b) * cfg_.dgc_traffic_factor));
  };
  co_await net_.deliver(caller, callee, inflate(cfg_.call_overhead + args));
  Bytes result = co_await std::move(server_work);
  co_await net_.deliver(callee, caller, inflate(cfg_.reply_overhead + result));
}

sim::Task<void> RmiTransport::call(NodeId caller, NodeId callee, Bytes args,
                                   std::function<sim::Task<Bytes>()> server_work,
                                   stats::TraceSink* trace) {
  ++calls_;
  if (caller == callee) {
    (void)co_await server_work();
    co_return;
  }
  ++remote_calls_;
  sim::Simulator& sim = net_.simulator();
  const sim::SimTime t0 = sim.now();
  const std::uint32_t span =
      trace == nullptr ? 0
                       : trace->begin_span(stats::SpanKind::kRmiWire, "rmi", caller.value(),
                                           callee.value(), t0);

  // At-most-once server execution across retries: a replayed request whose
  // predecessor already ran the work gets the memoized reply size. A failure
  // thrown *by* the work (e.g. a nested call exhausting its own retries) is a
  // server-side error, not transport loss of this call: it must propagate to
  // the caller instead of triggering a replay of a partially-run body. The
  // work's duration is subtracted from the call's elapsed time for the
  // exclusive rmi-wire total, so nested spans keep the flat totals additive.
  bool work_done = false;
  bool work_failed = false;
  Bytes reply = 0;
  sim::Duration server_time = sim::Duration::zero();
  // SimCheck probe: one id per resilient call, spanning its retries. The
  // sanitizer hard-fails if the guarded body below ever runs twice for it.
  const std::uint64_t call_id =
      res_.enabled && simcheck::enabled() ? simcheck::begin_rmi_call() : 0;
  auto once = [&]() -> sim::Task<Bytes> {
    if (!work_done) {
      if (call_id != 0) simcheck::on_server_execution(call_id);
      const sim::SimTime w0 = sim.now();
      try {
        reply = co_await server_work();
      } catch (...) {
        work_failed = true;  // no co_await here: flag and rethrow only
        throw;
      }
      server_time += sim.now() - w0;
      work_done = true;
    }
    co_return reply;
  };

  std::exception_ptr err;
  try {
    if (!res_.enabled) {
      co_await attempt(caller, callee, args, once());
    } else {
      CircuitBreaker& br = breaker(callee);
      for (int attempt_no = 0;; ++attempt_no) {
        const bool allowed = br.allow(sim.now());
        sync_metrics();  // allow() may have moved the breaker to half-open
        if (!allowed) {
          ++breaker_rejections_;
          sync_metrics();
          throw CircuitOpenError("RmiTransport: circuit to callee is open");
        }
        const sim::SimTime a0 = sim.now();
        bool ok = false;
        bool silent_loss = false;  // co_await is illegal in a catch block
        try {
          co_await attempt(caller, callee, args, once());
          ok = true;
        } catch (const DeliveryError&) {
          if (work_failed) throw;  // server-side failure: do not replay
          silent_loss = true;
        } catch (const NoRouteError&) {
          if (work_failed) throw;
          // Connection refused / no route: the caller notices immediately.
        }
        if (ok) {
          br.on_success(sim.now());
          sync_metrics();  // a half-open probe success closes the breaker
          break;
        }
        if (silent_loss) {
          // A lost message gives the caller no signal; it waits out the
          // per-attempt timeout before acting.
          const sim::SimTime deadline = a0 + res_.call_timeout;
          if (sim.now() < deadline) co_await sim.wait(deadline - sim.now());
          ++timeouts_;
        }
        br.on_failure(sim.now());
        sync_metrics();  // a threshold-crossing failure opens the breaker
        if (attempt_no >= res_.max_retries) {
          ++failed_calls_;
          sync_metrics();
          throw DeliveryError("RmiTransport: call failed after " +
                              std::to_string(attempt_no + 1) + " attempts");
        }
        ++retries_;
        sync_metrics();
        co_await sim.wait(backoff_delay(caller, attempt_no));
      }
    }
  } catch (...) {
    // co_await is illegal in a catch block; close the span outside.
    err = std::current_exception();
  }
  if (trace != nullptr) {
    const sim::SimTime end = sim.now();
    trace->add(stats::SpanKind::kRmiWire, (end - t0) - server_time);
    trace->end_span(span, end);
  }
  if (err) std::rethrow_exception(err);
}

sim::Task<void> RmiTransport::stub_exchange(NodeId caller, NodeId callee,
                                            stats::TraceSink* trace) {
  if (caller == callee) co_return;
  ++stub_exchanges_;
  const sim::SimTime t0 = net_.simulator().now();
  co_await net_.deliver(caller, callee, cfg_.stub_request);
  co_await net_.deliver(callee, caller, cfg_.stub_response);
  if (trace != nullptr) {
    const sim::SimTime end = net_.simulator().now();
    trace->add(stats::SpanKind::kStub, end - t0);
    trace->leaf(stats::SpanKind::kStub, "stub", caller.value(), callee.value(), t0, end);
  }
}

}  // namespace mutsvc::net
