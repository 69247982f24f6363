#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
/// dispatch delay. Per-subscriber delivery is FIFO (JMS topic ordering) and
/// at-least-once: each subscriber has its own unbounded provider-side queue,
/// and a message that fails to reach the subscriber is redelivered.
template <class T>
class Topic {
 public:
  using Handler = std::function<sim::Task<void>(const T&)>;

  Topic(net::Network& net, net::NodeId provider, std::string name,
        sim::Duration mdb_dispatch = sim::us(300))
      : net_(net),
        provider_(provider),
        name_(std::move(name)),
        mdb_dispatch_(mdb_dispatch) {}

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

  /// Publishes a message of marshalled size `bytes`. Completes when the
  /// provider has accepted the message; fan-out continues in the background.
  /// A TraceSink (publisher-side only) gets a child span for the accept hop;
  /// the background drain never traces — the sink does not outlive the
  /// publishing request.
  [[nodiscard]] sim::Task<void> publish(net::NodeId from, T message, net::Bytes bytes,
                                        stats::TraceSink* trace = nullptr) {
    const sim::SimTime t0 = net_.simulator().now();
    co_await net_.deliver(from, provider_, bytes);
    if (trace != nullptr) {
      trace->leaf(stats::SpanKind::kPublish, "jms:" + name_, from.value(), provider_.value(), t0,
                  net_.simulator().now());
    }
    ++published_;
    auto shared = std::make_shared<const T>(std::move(message));
    for (auto& sub : subscribers_) {
      ++sub->expected;
      sub->queue.push_back(Pending{shared, bytes});
      if (!sub->draining) {
        sub->draining = true;
        net_.simulator().spawn(drain(*sub));
      }
    }
  }

  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t delivery_retries() const { return delivery_retries_; }
  /// Fan-out copies addressed to subscribers since their subscribe times;
  /// expected_deliveries() == delivered() + pending() at any time.
  [[nodiscard]] std::uint64_t expected_deliveries() const {
    std::uint64_t n = 0;
    for (const auto& sub : subscribers_) n += sub->expected;
    return n;
  }

  /// How long the provider waits before redelivering to a partitioned
  /// subscriber.
  void set_retry_interval(sim::Duration d) { retry_interval_ = d; }

  /// True when every message addressed to a subscriber has been handled by
  /// it. Tracked per subscriber from its subscribe time, so a late
  /// subscriber does not make the topic permanently non-quiescent over
  /// messages that predate it.
  [[nodiscard]] bool quiescent() const {
    for (const auto& sub : subscribers_) {
      if (sub->expected != sub->delivered) return false;
    }
    return true;
  }

  /// Messages accepted by the provider but not yet handled by every
  /// subscriber (in-flight dispatches included) — the topic's logical
  /// queue depth, fed into the metrics registry.
  [[nodiscard]] std::uint64_t pending() const {
    std::uint64_t n = 0;
    for (const auto& sub : subscribers_) n += sub->expected - sub->delivered;
    return n;
  }

  /// Sum of the per-subscriber provider-side queue lengths right now.
  [[nodiscard]] std::size_t queue_depth() const {
    std::size_t n = 0;
    for (const auto& sub : subscribers_) n += sub->queue.size();
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
    bool draining = false;
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
  };

  [[nodiscard]] sim::Task<void> drain(Subscriber& sub) {
    while (!sub.queue.empty()) {
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
      co_await net_.simulator().wait(mdb_dispatch_);  // onMessage dispatch
      co_await sub.handler(*p.message);
      ++sub.delivered;
      ++delivered_;
    }
    sub.draining = false;
  }

  net::Network& net_;
  net::NodeId provider_;
  std::string name_;
  sim::Duration mdb_dispatch_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  sim::Duration retry_interval_ = sim::sec(5);
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivery_retries_ = 0;
};

}  // namespace mutsvc::msg
