#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "messaging/topic.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::msg {
namespace {

using sim::Duration;
using sim::ms;
using sim::Simulator;
using sim::Task;

struct TopicWorld {
  Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId main, edge1, edge2;
  net::Network net{sim, topo, Duration::zero()};

  TopicWorld() {
    main = topo.add_node("main", net::NodeRole::kAppServer);
    edge1 = topo.add_node("edge1", net::NodeRole::kAppServer);
    edge2 = topo.add_node("edge2", net::NodeRole::kAppServer);
    topo.add_link(main, edge1, ms(100), 100e6);
    topo.add_link(main, edge2, ms(100), 100e6);
  }
};

TEST(TopicTest, PublishDeliversToAllSubscribers) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  std::vector<std::pair<net::NodeId, int>> received;
  for (net::NodeId n : {w.edge1, w.edge2}) {
    topic.subscribe(n, [&received, n](const int& v) -> Task<void> {
      received.emplace_back(n, v);
      co_return;
    });
  }
  w.sim.spawn([](Topic<int>& t, TopicWorld& w) -> Task<void> {
    co_await t.publish(w.main, 42, 128);
  }(topic, w));
  w.sim.run_until();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].second, 42);
  EXPECT_EQ(received[1].second, 42);
  EXPECT_TRUE(topic.quiescent());
}

TEST(TopicTest, PublisherDoesNotWaitForSubscribers) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  topic.subscribe(w.edge1, [](const int&) -> Task<void> { co_return; });
  sim::SimTime published_at;
  w.sim.spawn([](Topic<int>& t, TopicWorld& w, sim::SimTime& at) -> Task<void> {
    co_await t.publish(w.main, 1, 128);
    at = w.sim.now();
  }(topic, w, published_at));
  w.sim.run_until();
  // Publisher completes at the provider (co-located, instant); delivery to
  // the edge takes the 100ms WAN hop afterwards.
  EXPECT_LT(published_at.as_millis(), 1.0);
  EXPECT_GE(w.sim.now().as_millis(), 100.0);
}

TEST(TopicTest, PerSubscriberFifoOrdering) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  std::vector<int> got;
  topic.subscribe(w.edge1, [&got](const int& v) -> Task<void> {
    got.push_back(v);
    co_return;
  });
  w.sim.spawn([](Topic<int>& t, TopicWorld& w) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await t.publish(w.main, i, 64);
  }(topic, w));
  w.sim.run_until();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TopicTest, RemotePublisherPaysPathToProvider) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  topic.subscribe(w.edge2, [](const int&) -> Task<void> { co_return; });
  sim::SimTime published_at;
  w.sim.spawn([](Topic<int>& t, TopicWorld& w, sim::SimTime& at) -> Task<void> {
    co_await t.publish(w.edge1, 1, 128);  // publisher across the WAN
    at = w.sim.now();
  }(topic, w, published_at));
  w.sim.run_until();
  EXPECT_NEAR(published_at.as_millis(), 100.0, 1.0);
}

TEST(TopicTest, SubscriberDelayDoesNotBlockOtherSubscribers) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  std::vector<std::pair<double, net::NodeId>> done;
  topic.subscribe(w.edge1, [&](const int&) -> Task<void> {
    co_await w.sim.wait(ms(500));  // slow consumer
    done.emplace_back(w.sim.now().as_millis(), w.edge1);
  });
  topic.subscribe(w.edge2, [&](const int&) -> Task<void> {
    done.emplace_back(w.sim.now().as_millis(), w.edge2);
    co_return;
  });
  w.sim.spawn([](Topic<int>& t, TopicWorld& w) -> Task<void> {
    co_await t.publish(w.main, 7, 64);
  }(topic, w));
  w.sim.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].second, w.edge2);  // fast edge finishes first
  EXPECT_NEAR(done[0].first, 100.0, 1.0);
  EXPECT_NEAR(done[1].first, 600.0, 1.0);
}

TEST(TopicTest, MdbDispatchDelayApplied) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", ms(5)};
  double handled_at = 0.0;
  topic.subscribe(w.edge1, [&](const int&) -> Task<void> {
    handled_at = w.sim.now().as_millis();
    co_return;
  });
  w.sim.spawn([](Topic<int>& t, TopicWorld& w) -> Task<void> {
    co_await t.publish(w.main, 1, 64);
  }(topic, w));
  w.sim.run_until();
  EXPECT_NEAR(handled_at, 105.0, 1.0);
}

TEST(TopicTest, CountersAndQuiescence) {
  TopicWorld w;
  Topic<std::string> topic{w.net, w.main, "updates", Duration::zero()};
  topic.subscribe(w.edge1, [](const std::string&) -> Task<void> { co_return; });
  topic.subscribe(w.edge2, [](const std::string&) -> Task<void> { co_return; });
  w.sim.spawn([](Topic<std::string>& t, TopicWorld& w) -> Task<void> {
    co_await t.publish(w.main, std::string{"a"}, 64);
    co_await t.publish(w.main, std::string{"b"}, 64);
  }(topic, w));
  w.sim.run_until();
  EXPECT_EQ(topic.published(), 2u);
  EXPECT_EQ(topic.delivered(), 4u);
  EXPECT_TRUE(topic.quiescent());
}

// A subscriber added mid-stream must not make quiescent() permanently
// false: expected deliveries are tracked per subscriber from its subscribe
// time, so the late subscriber owes nothing for the history it missed.
TEST(TopicTest, LateSubscriberDoesNotBreakQuiescence) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates", Duration::zero()};
  std::vector<int> early;
  std::vector<int> late;
  auto sink = [](std::vector<int>& got) {
    return [&got](const int& v) -> Task<void> {
      got.push_back(v);
      co_return;
    };
  };
  auto publish = [](Topic<int>& t, net::NodeId from, int first, int n) -> Task<void> {
    for (int i = first; i < first + n; ++i) co_await t.publish(from, i, 64);
  };
  topic.subscribe(w.edge1, sink(early));

  w.sim.spawn(publish(topic, w.main, 0, 5));
  w.sim.run_until();
  ASSERT_TRUE(topic.quiescent());

  topic.subscribe(w.edge2, sink(late));
  EXPECT_TRUE(topic.quiescent()) << "a fresh subscriber expects nothing";

  w.sim.spawn(publish(topic, w.main, 5, 3));
  w.sim.run_until();
  EXPECT_TRUE(topic.quiescent());
  EXPECT_EQ(early, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(late, (std::vector<int>{5, 6, 7})) << "only messages published after subscribing";
  EXPECT_EQ(topic.expected_deliveries(), 11u);
  EXPECT_EQ(topic.delivered(), 11u);
  EXPECT_EQ(topic.pending(), 0u);
}

TEST(TopicTest, NoSubscribersIsFine) {
  TopicWorld w;
  Topic<int> topic{w.net, w.main, "updates"};
  w.sim.spawn([](Topic<int>& t, TopicWorld& w) -> Task<void> {
    co_await t.publish(w.main, 1, 64);
  }(topic, w));
  w.sim.run_until();
  EXPECT_EQ(topic.published(), 1u);
  EXPECT_TRUE(topic.quiescent());
}

}  // namespace
}  // namespace mutsvc::msg
