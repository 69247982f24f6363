// Deeper network coverage: parameterized latency/bandwidth laws, byte
// accounting, and protocol edge cases.
#include <gtest/gtest.h>

#include "net/http.hpp"
#include "net/network.hpp"
#include "net/rmi.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::net {
namespace {

using sim::Duration;
using sim::ms;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

struct Pair {
  Simulator sim{3};
  net::Topology topo{sim};
  NodeId a, b;
  net::Network net{sim, topo, Duration::zero()};

  Pair(double latency_ms, double bandwidth_bps) {
    a = topo.add_node("a", NodeRole::kAppServer);
    b = topo.add_node("b", NodeRole::kAppServer);
    topo.add_link(a, b, ms(latency_ms), bandwidth_bps);
  }

  double timed(Task<void> t) {
    SimTime start = sim.now();
    sim.spawn(std::move(t));
    sim.run_until();
    return (sim.now() - start).as_millis();
  }
};

/// Delivery-time law: latency + size*8/bandwidth.
class DeliveryLaw : public ::testing::TestWithParam<std::tuple<double, double, Bytes>> {};

TEST_P(DeliveryLaw, MatchesTheory) {
  const auto [latency_ms, bw_mbps, size] = GetParam();
  Pair p{latency_ms, bw_mbps * 1e6};
  double t = p.timed([](Pair& p, Bytes size) -> Task<void> {
    co_await p.net.deliver(p.a, p.b, size);
  }(p, size));
  const double expected = latency_ms + static_cast<double>(size) * 8.0 / (bw_mbps * 1e6) * 1e3;
  EXPECT_NEAR(t, expected, expected * 0.01 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeliveryLaw,
    ::testing::Values(std::make_tuple(1.0, 100.0, Bytes{1000}),
                      std::make_tuple(10.0, 100.0, Bytes{100000}),
                      std::make_tuple(100.0, 100.0, Bytes{1000}),
                      std::make_tuple(100.0, 10.0, Bytes{1000000}),
                      std::make_tuple(50.0, 1.0, Bytes{50000}),
                      std::make_tuple(0.2, 1000.0, Bytes{1500})));

TEST(NetworkExtraTest, ByteAccountingMatchesPayloadPlusOverheads) {
  Pair p{10.0, 100e6};
  HttpConfig cfg;
  HttpTransport http{p.net, cfg};
  (void)p.timed([](HttpTransport& http, Pair& p) -> Task<void> {
    co_await http.request(p.a, p.b, 400, []() -> Task<Bytes> { co_return 6000; });
  }(http, p));
  // SYN + SYN-ACK + (request 400+overhead) + (response 6000+overhead).
  const Bytes expected = cfg.handshake_bytes * 2 + cfg.request_overhead + 400 +
                         cfg.response_overhead + 6000;
  EXPECT_EQ(p.net.bytes_sent(), expected);
  EXPECT_EQ(p.net.messages_sent(), 4u);
}

TEST(NetworkExtraTest, InfiniteBandwidthLinkHasNoSerializationDelay) {
  Pair p{5.0, 0.0};  // 0 => infinite
  double t = p.timed([](Pair& p) -> Task<void> {
    co_await p.net.deliver(p.a, p.b, 100'000'000);
  }(p));
  EXPECT_NEAR(t, 5.0, 0.01);
}

TEST(NetworkExtraTest, PerHopOverheadApplied) {
  Simulator sim;
  net::Topology topo{sim};
  auto a = topo.add_node("a", NodeRole::kAppServer);
  auto r = topo.add_node("r", NodeRole::kRouter);
  auto b = topo.add_node("b", NodeRole::kAppServer);
  topo.add_link(a, r, ms(1));
  topo.add_link(r, b, ms(1));
  net::Network net{sim, topo, /*per_hop_overhead=*/ms(0.5)};
  SimTime start = sim.now();
  sim.spawn([](net::Network& n, NodeId a, NodeId b) -> Task<void> {
    co_await n.deliver(a, b, 100);
  }(net, a, b));
  sim.run_until();
  EXPECT_NEAR((sim.now() - start).as_millis(), 2.0 + 2 * 0.5, 0.01);
}

TEST(RmiExtraTest, DynamicReplySizeAffectsTransferTime) {
  Pair p{1.0, 1e6};  // slow 1 Mbit/s link makes sizes visible
  RmiConfig cfg;
  cfg.extra_rtt_prob = 0.0;
  cfg.dgc_traffic_factor = 1.0;
  RmiTransport rmi{p.net, cfg};
  double small = p.timed([](RmiTransport& rmi, Pair& p) -> Task<void> {
    co_await rmi.call(p.a, p.b, 100, []() -> Task<Bytes> { co_return 100; });
  }(rmi, p));
  double large = p.timed([](RmiTransport& rmi, Pair& p) -> Task<void> {
    co_await rmi.call(p.a, p.b, 100, []() -> Task<Bytes> { co_return 100000; });
  }(rmi, p));
  // 99,900 extra bytes at 1 Mbit/s ≈ 799 ms more.
  EXPECT_NEAR(large - small, 799.2, 5.0);
}

TEST(RmiExtraTest, LocalDynamicCallRunsWorkOnly) {
  Pair p{100.0, 100e6};
  RmiConfig cfg;
  cfg.extra_rtt_prob = 1.0;  // must not apply to local calls
  RmiTransport rmi{p.net, cfg};
  double t = p.timed([](RmiTransport& rmi, Pair& p) -> Task<void> {
    co_await rmi.call(p.a, p.a, 100, [&p]() -> Task<Bytes> {
      co_await p.sim.wait(ms(7));
      co_return 10;
    });
  }(rmi, p));
  EXPECT_NEAR(t, 7.0, 0.01);
  EXPECT_EQ(rmi.extra_round_trips(), 0u);
}

TEST(HttpExtraTest, SeparateClientsKeepSeparateKeepAlivePools) {
  Simulator sim;
  net::Topology topo{sim};
  auto c1 = topo.add_node("c1", NodeRole::kClientMachine);
  auto c2 = topo.add_node("c2", NodeRole::kClientMachine);
  auto s = topo.add_node("s", NodeRole::kAppServer);
  topo.add_link(c1, s, ms(10));
  topo.add_link(c2, s, ms(10));
  net::Network net{sim, topo, Duration::zero()};
  HttpConfig cfg;
  cfg.keep_alive = true;
  HttpTransport http{net, cfg};
  auto handler = []() -> Task<Bytes> { co_return 100; };
  sim.spawn([](HttpTransport& http, NodeId c1, NodeId c2, NodeId s,
               std::function<Task<Bytes>()> handler) -> Task<void> {
    co_await http.request(c1, s, 100, handler);
    co_await http.request(c2, s, 100, handler);  // different client: new handshake
    co_await http.request(c1, s, 100, handler);  // pooled
  }(http, c1, c2, s, handler));
  sim.run_until();
  EXPECT_EQ(http.handshakes(), 2u);
  EXPECT_EQ(http.requests(), 3u);
}

TEST(TopologyExtraTest, RoutesRecomputeAfterAddingBetterLink) {
  Simulator sim;
  net::Topology topo{sim};
  auto a = topo.add_node("a", NodeRole::kAppServer);
  auto b = topo.add_node("b", NodeRole::kAppServer);
  topo.add_link(a, b, ms(100));
  EXPECT_NEAR(topo.path_latency(a, b).as_millis(), 100.0, 0.01);
  topo.add_link(a, b, ms(10));  // new faster parallel link
  EXPECT_NEAR(topo.path_latency(a, b).as_millis(), 10.0, 0.01);
}

TEST(TopologyExtraTest, InFlightMessageKeepsItsHopsWhenAFlapRebuildsRoutes) {
  // a -> c goes a-b-c (20 ms) while b-c is up, else a-c direct (50 ms). A
  // flap of b-c while the first message is on a-b rebuilds the routes; the
  // message still finishes over the hops it started with, and the next
  // message takes the new route.
  Simulator sim;
  net::Topology topo{sim};
  const NodeId a = topo.add_node("a", NodeRole::kAppServer);
  const NodeId b = topo.add_node("b", NodeRole::kAppServer);
  const NodeId c = topo.add_node("c", NodeRole::kAppServer);
  topo.add_link(a, b, ms(10));
  topo.add_link(b, c, ms(10));
  topo.add_link(a, c, ms(50));
  net::Network net{sim, topo, Duration::zero()};
  double first_ms = -1.0;
  double second_ms = -1.0;
  sim.spawn([](Simulator& sim, Network& net, NodeId a, NodeId c, double& out) -> Task<void> {
    co_await net.deliver(a, c, 100);
    out = sim.now().as_millis();
  }(sim, net, a, c, first_ms));
  sim.schedule_at(SimTime::origin() + ms(5), [&topo, b, c] { topo.set_link_state(b, c, false); });
  sim.schedule_at(SimTime::origin() + ms(6), [&] {
    sim.spawn([](Simulator& sim, Network& net, NodeId a, NodeId c, double& out) -> Task<void> {
      const SimTime t0 = sim.now();
      co_await net.deliver(a, c, 100);
      out = (sim.now() - t0).as_millis();
    }(sim, net, a, c, second_ms));
  });
  sim.run_until();
  EXPECT_NEAR(first_ms, 20.0, 0.01);   // a-b-c, as routed when it left
  EXPECT_NEAR(second_ms, 50.0, 0.01);  // a-c, the rebuilt route
}

}  // namespace
}  // namespace mutsvc::net
