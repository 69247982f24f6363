#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/flowcontrol.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/task.hpp"
#include "stats/trace.hpp"

namespace mutsvc::msg {

/// A JMS-style publish/subscribe topic (§4.5).
///
/// The provider lives on a node (the paper hosts it with the main server).
/// `publish` delivers the message to the provider, then fans it out to every
/// subscriber asynchronously: the publisher's task completes as soon as the
/// provider has the message — subscribers receive it later, each paying the
/// network path from the provider to its own node plus a small MDB
/// dispatch delay. Per-subscriber delivery is FIFO (JMS topic ordering).
///
/// Overload protection (opt-in via set_bound): each subscriber's provider-
/// side queue gets a capacity and an overflow policy — drop (terminal shed),
/// bounce (the publisher sees a retryable OverloadError before the message
/// is accepted), or local overflow (diverted into a per-subscriber spill
/// buffer, drained back once the queue falls to the low watermark; a full
/// spill buffer sheds). A credit gate over the backlog watermarks gives
/// upstream writers a backpressure signal (`credit_wait`). With no bound
/// installed every new branch is dead and the topic behaves exactly like
/// the unbounded original.
template <class T>
class Topic {
 public:
  using Handler = std::function<sim::Task<void>(const T&)>;

  Topic(net::Network& net, net::NodeId provider, std::string name,
        sim::Duration mdb_dispatch = sim::us(300))
      : net_(net),
        provider_(provider),
        name_(std::move(name)),
        mdb_dispatch_(mdb_dispatch),
        credit_(net_.simulator()) {}

  Topic(const Topic&) = delete;
  Topic& operator=(const Topic&) = delete;

  [[nodiscard]] net::NodeId provider_node() const { return provider_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Registers a message-driven subscriber at `node`. A subscriber only
  /// expects messages published from its subscribe time on — earlier
  /// traffic was never addressed to it.
  void subscribe(net::NodeId node, Handler handler) {
    subscribers_.push_back(std::make_unique<Subscriber>(node, std::move(handler)));
  }

  [[nodiscard]] std::size_t subscriber_count() const { return subscribers_.size(); }

  /// Bounds every subscriber queue with `b` (see class comment). With
  /// `backpressure` the credit gate tracks the bound's watermarks; without
  /// it the gate stays open forever and credit_wait() is free.
  void set_bound(const net::QueueBound& b, bool backpressure = false) {
    bound_ = b;
    backpressure_ = backpressure && b.bounded();
  }
  [[nodiscard]] const net::QueueBound& bound() const { return bound_; }

  /// Publishes a message of marshalled size `bytes`. Completes when the
  /// provider has accepted the message; fan-out continues in the background.
  /// Under OverflowPolicy::kBounce a provider with any subscriber queue at
  /// capacity refuses the message instead (OverloadError, retryable), after
  /// the network cost of reaching it was paid — like a JMS resource-limit
  /// rejection. A TraceSink (publisher-side only) gets a child span for the
  /// accept hop; the background drain never traces — the sink does not
  /// outlive the publishing request.
  [[nodiscard]] sim::Task<void> publish(net::NodeId from, T message, net::Bytes bytes,
                                        stats::TraceSink* trace = nullptr) {
    const sim::SimTime t0 = net_.simulator().now();
    co_await net_.deliver(from, provider_, bytes);
    if (trace != nullptr) {
      trace->leaf(stats::SpanKind::kPublish, "jms:" + name_, from.value(), provider_.value(), t0,
                  net_.simulator().now());
    }
    if (bound_.bounded() && bound_.policy == net::OverflowPolicy::kBounce) {
      for (const auto& sub : subscribers_) {
        if (sub->queue.size() >= bound_.capacity) {
          ++bounced_;
          throw net::OverloadError("Topic " + name_ + ": bounced, subscriber queue at capacity");
        }
      }
    }
    ++published_;
    auto shared = std::make_shared<const T>(std::move(message));
    for (auto& sub : subscribers_) {
      ++sub->expected;
      // A non-empty spill also diverts arrivals: letting them into the main
      // queue would reorder them ahead of older spilled messages, breaking
      // per-subscriber FIFO.
      if (bound_.bounded() && (sub->queue.size() >= bound_.capacity || !sub->spill.empty())) {
        if (bound_.policy == net::OverflowPolicy::kLocalOverflow &&
            (bound_.spill_capacity == 0 || sub->spill.size() < bound_.spill_capacity)) {
          sub->spill.push_back(Pending{shared, bytes});
          ++spilled_;
        } else {
          ++sub->shed;  // kDrop, or the spill buffer itself is full
          ++shed_;
        }
      } else {
        sub->queue.push_back(Pending{shared, bytes});
      }
      if (!sub->draining && (!sub->queue.empty() || !sub->spill.empty())) {
        sub->draining = true;
        net_.simulator().spawn(drain(*sub));
      }
    }
    update_credit();
  }

  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t delivery_retries() const { return delivery_retries_; }

  // --- overload accounting (all zero while unbounded) ----------------------
  // Conservation: publish attempts == published + bounced, and per topic
  // expected_deliveries == delivered + shed + pending (exact at any time).
  [[nodiscard]] std::uint64_t publish_attempts() const { return published_ + bounced_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  [[nodiscard]] std::uint64_t bounced() const { return bounced_; }
  [[nodiscard]] std::uint64_t spilled() const { return spilled_; }
  /// Fan-out copies addressed to subscribers since their subscribe times.
  [[nodiscard]] std::uint64_t expected_deliveries() const {
    std::uint64_t n = 0;
    for (const auto& sub : subscribers_) n += sub->expected;
    return n;
  }
  [[nodiscard]] std::uint64_t credit_stalls() const { return credit_.stalls(); }
  [[nodiscard]] bool credit_open() const { return credit_.open(); }

  /// Backpressure hook for upstream writers: completes immediately while
  /// the gate is open (always, unless set_bound enabled backpressure).
  [[nodiscard]] sim::Task<void> credit_wait() { return credit_.wait(); }

  /// How long the provider waits before redelivering to a partitioned
  /// subscriber.
  void set_retry_interval(sim::Duration d) { retry_interval_ = d; }

  /// True when every message addressed to a subscriber has been handled by
  /// it (or terminally shed). Tracked per subscriber from its subscribe
  /// time, so a late subscriber does not make the topic permanently
  /// non-quiescent over messages that predate it.
  [[nodiscard]] bool quiescent() const {
    for (const auto& sub : subscribers_) {
      if (sub->expected != sub->delivered + sub->shed) return false;
    }
    return true;
  }

  /// Messages accepted by the provider but not yet handled by (or shed for)
  /// every subscriber (in-flight dispatches included) — the topic's logical
  /// queue depth, fed into the metrics registry.
  [[nodiscard]] std::uint64_t pending() const {
    std::uint64_t n = 0;
    for (const auto& sub : subscribers_) n += sub->expected - sub->delivered - sub->shed;
    return n;
  }

  /// Sum of the per-subscriber provider-side queue lengths right now.
  [[nodiscard]] std::size_t queue_depth() const {
    std::size_t n = 0;
    for (const auto& sub : subscribers_) n += sub->queue.size();
    return n;
  }

  /// Sum of the per-subscriber spill-buffer lengths right now.
  [[nodiscard]] std::size_t spill_depth() const {
    std::size_t n = 0;
    for (const auto& sub : subscribers_) n += sub->spill.size();
    return n;
  }

 private:
  struct Pending {
    std::shared_ptr<const T> message;
    net::Bytes bytes;
  };
  struct Subscriber {
    Subscriber(net::NodeId n, Handler h) : node(n), handler(std::move(h)) {}
    net::NodeId node;
    Handler handler;
    std::deque<Pending> queue;  // deque: the drain pops the front in O(1)
    std::deque<Pending> spill;  // kLocalOverflow buffer
    bool draining = false;
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t shed = 0;
  };

  [[nodiscard]] sim::Task<void> drain(Subscriber& sub) {
    while (!sub.queue.empty() || !sub.spill.empty()) {
      // Low-watermark refill: spilled messages re-enter the main queue once
      // it has drained to the low watermark, preserving FIFO order.
      while (!sub.spill.empty() && sub.queue.size() <= bound_.low()) {
        sub.queue.push_back(std::move(sub.spill.front()));
        sub.spill.pop_front();
      }
      // At-least-once delivery: on a network partition — or a message lost
      // by the fault injector — the provider holds the message and retries
      // until the subscriber receives it.
      // (co_await is illegal inside a catch block, hence the flag.)
      bool sent = false;
      try {
        co_await net_.deliver(provider_, sub.node, sub.queue.front().bytes);
        sent = true;
      } catch (const net::NetError&) {
        ++delivery_retries_;
      }
      if (!sent) {
        co_await net_.simulator().wait(retry_interval_);
        continue;
      }
      Pending p = std::move(sub.queue.front());
      sub.queue.pop_front();
      update_credit();
      co_await net_.simulator().wait(mdb_dispatch_);  // onMessage dispatch
      co_await sub.handler(*p.message);
      ++sub.delivered;
      ++delivered_;
    }
    sub.draining = false;
  }

  /// Hysteresis: any subscriber backlog (queue + spill) at/over the high
  /// watermark closes the credit gate; it reopens only once every backlog
  /// is at/under the low watermark.
  void update_credit() {
    if (!backpressure_) return;
    if (credit_.open()) {
      for (const auto& sub : subscribers_) {
        if (sub->queue.size() + sub->spill.size() >= bound_.high()) {
          credit_.close_gate();
          return;
        }
      }
    } else {
      for (const auto& sub : subscribers_) {
        if (sub->queue.size() + sub->spill.size() > bound_.low()) return;
      }
      credit_.open_gate();
    }
  }

  net::Network& net_;
  net::NodeId provider_;
  std::string name_;
  sim::Duration mdb_dispatch_;
  net::CreditGate credit_;
  net::QueueBound bound_;
  bool backpressure_ = false;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  sim::Duration retry_interval_ = sim::sec(5);
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivery_retries_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t bounced_ = 0;
  std::uint64_t spilled_ = 0;
};

}  // namespace mutsvc::msg
