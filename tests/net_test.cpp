#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

struct Harness {
  Simulator sim{1};
  Topology topo{sim};
  NodeId a, b, c;
  Network net{sim, topo, /*per_hop_overhead=*/Duration::zero()};

  Harness() {
    a = topo.add_node("a", NodeRole::kAppServer);
    b = topo.add_node("b", NodeRole::kAppServer);
    c = topo.add_node("c", NodeRole::kAppServer);
    topo.add_link(a, b, ms(100), 100e6);  // WAN
    topo.add_link(b, c, ms(0.2), 100e6);  // LAN
  }

  Duration timed(Task<void> t) {
    SimTime start = sim.now();
    bool done = false;
    sim.spawn([](Task<void> t, bool& d) -> Task<void> {
      co_await std::move(t);
      d = true;
    }(std::move(t), done));
    sim.run_until();
    EXPECT_TRUE(done);
    return sim.now() - start;
  }
};

TEST(TopologyTest, FindByName) {
  Harness h;
  EXPECT_EQ(h.topo.find("b"), h.b);
  EXPECT_THROW((void)h.topo.find("zzz"), std::invalid_argument);
}

TEST(TopologyTest, BadNodeIdThrows) {
  Harness h;
  EXPECT_THROW((void)h.topo.node(NodeId{99}), std::out_of_range);
}

TEST(TopologyTest, DirectPathLatency) {
  Harness h;
  EXPECT_EQ(h.topo.path_latency(h.a, h.b), ms(100));
  EXPECT_EQ(h.topo.rtt(h.a, h.b), ms(200));
}

TEST(TopologyTest, MultiHopRouting) {
  Harness h;
  EXPECT_EQ(h.topo.path_latency(h.a, h.c), ms(100.2));
  auto path = h.topo.path(h.a, h.c);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->from, h.a);
  EXPECT_EQ(path[0]->to, h.b);
  EXPECT_EQ(path[1]->from, h.b);
  EXPECT_EQ(path[1]->to, h.c);
}

TEST(TopologyTest, SelfPathIsEmpty) {
  Harness h;
  EXPECT_TRUE(h.topo.path(h.a, h.a).empty());
  EXPECT_EQ(h.topo.path_latency(h.a, h.a), Duration::zero());
}

TEST(TopologyTest, NoRouteThrows) {
  Simulator sim;
  Topology topo{sim};
  NodeId x = topo.add_node("x", NodeRole::kAppServer);
  NodeId y = topo.add_node("y", NodeRole::kAppServer);
  EXPECT_THROW((void)topo.path(x, y), std::runtime_error);
}

TEST(TopologyTest, RoutePrefersLowerLatency) {
  Simulator sim;
  Topology topo{sim};
  NodeId a = topo.add_node("a", NodeRole::kAppServer);
  NodeId b = topo.add_node("b", NodeRole::kAppServer);
  NodeId r = topo.add_node("r", NodeRole::kRouter);
  topo.add_link(a, b, ms(50));
  topo.add_link(a, r, ms(10));
  topo.add_link(r, b, ms(10));
  EXPECT_EQ(topo.path_latency(a, b), ms(20));
}

TEST(LinkTest, TransmissionTime) {
  Harness h;
  Link* l = h.topo.path(h.a, h.b)[0];
  // 1 MB over 100 Mbit/s = 8*2^20/1e8 s ≈ 83.9 ms.
  EXPECT_NEAR(l->transmission_time(1024 * 1024).as_millis(), 83.886, 0.01);
  EXPECT_EQ(l->transmission_time(0), Duration::zero());
}

TEST(NetworkTest, LoopbackIsFree) {
  Harness h;
  EXPECT_EQ(h.timed(h.net.deliver(h.a, h.a, 1000)), Duration::zero());
}

TEST(NetworkTest, OneWayDeliveryLatency) {
  Harness h;
  Duration d = h.timed(h.net.deliver(h.a, h.b, 1000));
  // 100ms propagation + 1000B/100Mbps = 0.08ms serialization.
  EXPECT_NEAR(d.as_millis(), 100.08, 0.01);
}

TEST(NetworkTest, MultiHopStoreAndForward) {
  Harness h;
  Duration d = h.timed(h.net.deliver(h.a, h.c, 1000));
  EXPECT_NEAR(d.as_millis(), 100.08 + 0.2 + 0.08, 0.02);
}

TEST(NetworkTest, BandwidthContentionQueues) {
  Harness h;
  // Two 10 Mbit messages on a 100 Mbit/s link: second waits for the first
  // to serialize.
  Bytes big = 10'000'000 / 8;  // 10 Mbit
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    h.sim.spawn([](Harness& h, std::vector<double>& d) -> Task<void> {
      co_await h.net.deliver(h.a, h.b, 10'000'000 / 8);
      d.push_back(h.sim.now().as_millis());
    }(h, done));
  }
  (void)big;
  h.sim.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 200.0, 1.0);  // 100ms tx + 100ms prop
  EXPECT_NEAR(done[1], 300.0, 1.0);  // waits 100ms behind the first
}

TEST(NetworkTest, WanAccountingCountsOnlyWanCrossings) {
  Harness h;
  (void)h.timed(h.net.deliver(h.b, h.c, 100));  // LAN only
  EXPECT_EQ(h.net.wan_messages_sent(), 0u);
  (void)h.timed(h.net.deliver(h.a, h.c, 100));  // crosses WAN link
  EXPECT_EQ(h.net.wan_messages_sent(), 1u);
  EXPECT_EQ(h.net.messages_sent(), 2u);
}

TEST(NetworkTest, CountersReset) {
  Harness h;
  (void)h.timed(h.net.deliver(h.a, h.b, 100));
  h.net.reset_counters();
  EXPECT_EQ(h.net.messages_sent(), 0u);
  EXPECT_EQ(h.net.bytes_sent(), 0);
}

// --- HTTP -------------------------------------------------------------------

TEST(HttpTest, RequestWithoutKeepAliveCostsTwoRoundTrips) {
  Harness h;
  HttpConfig cfg;
  cfg.keep_alive = false;
  HttpTransport http{h.net, cfg};
  Duration d = h.timed(http.request(h.a, h.b, 200, []() -> Task<Bytes> { co_return 2000; }));
  // Handshake RTT (200ms) + request/response RTT (200ms) + serialization.
  EXPECT_NEAR(d.as_millis(), 400.0, 1.0);
  EXPECT_EQ(http.handshakes(), 1u);
}

TEST(HttpTest, KeepAliveSkipsHandshakeAfterFirstRequest) {
  Harness h;
  HttpConfig cfg;
  cfg.keep_alive = true;
  HttpTransport http{h.net, cfg};
  auto handler = []() -> Task<Bytes> { co_return 1000; };
  Duration d1 = h.timed(http.request(h.a, h.b, 100, handler));
  Duration d2 = h.timed(http.request(h.a, h.b, 100, handler));
  EXPECT_NEAR(d1.as_millis(), 400.0, 1.0);
  EXPECT_NEAR(d2.as_millis(), 200.0, 1.0);
  EXPECT_EQ(http.handshakes(), 1u);
  EXPECT_EQ(http.requests(), 2u);
}

TEST(HttpTest, LocalRequestSkipsHandshakeDelivery) {
  Harness h;
  HttpTransport http{h.net};
  Duration d = h.timed(http.request(h.b, h.b, 100, []() -> Task<Bytes> { co_return 100; }));
  EXPECT_EQ(d, Duration::zero());
}

TEST(HttpTest, HandlerDelayIncluded) {
  Harness h;
  HttpTransport http{h.net};
  Duration d = h.timed(http.request(h.a, h.b, 100, [&]() -> Task<Bytes> {
    co_await h.sim.wait(ms(50));
    co_return 100;
  }));
  EXPECT_NEAR(d.as_millis(), 450.0, 1.0);
}

// --- RMI --------------------------------------------------------------------

RmiConfig no_jitter_rmi() {
  RmiConfig cfg;
  cfg.extra_rtt_prob = 0.0;
  cfg.dgc_traffic_factor = 1.0;
  return cfg;
}

TEST(RmiTest, LocalCallIsFreeAtTransportLayer) {
  Harness h;
  RmiTransport rmi{h.net, no_jitter_rmi()};
  Duration d = h.timed(rmi.call(h.b, h.b, 100, []() -> Task<Bytes> { co_return 100; }));
  EXPECT_EQ(d, Duration::zero());
  EXPECT_EQ(rmi.calls(), 1u);
  EXPECT_EQ(rmi.remote_calls(), 0u);
}

TEST(RmiTest, RemoteCallCostsOneRoundTrip) {
  Harness h;
  RmiTransport rmi{h.net, no_jitter_rmi()};
  Duration d = h.timed(rmi.call(h.a, h.b, 100, []() -> Task<Bytes> { co_return 100; }));
  EXPECT_NEAR(d.as_millis(), 200.0, 1.0);
  EXPECT_EQ(rmi.remote_calls(), 1u);
}

TEST(RmiTest, ExtraRoundTripsHappenAtConfiguredRate) {
  Harness h;
  RmiConfig cfg = no_jitter_rmi();
  cfg.extra_rtt_prob = 0.5;
  RmiTransport rmi{h.net, cfg};
  for (int i = 0; i < 200; ++i) {
    (void)h.timed(rmi.call(h.a, h.b, 10, []() -> Task<Bytes> { co_return 10; }));
  }
  double rate = static_cast<double>(rmi.extra_round_trips()) / 200.0;
  EXPECT_NEAR(rate, 0.5, 0.12);
}

TEST(RmiTest, DgcFactorInflatesBytes) {
  Harness h;
  RmiConfig cfg = no_jitter_rmi();
  RmiTransport plain{h.net, cfg};
  (void)h.timed(plain.call(h.a, h.b, 1000, []() -> Task<Bytes> { co_return 1000; }));
  Bytes plain_bytes = h.net.bytes_sent();

  h.net.reset_counters();
  cfg.dgc_traffic_factor = 2.0;
  RmiTransport dgc{h.net, cfg};
  (void)h.timed(dgc.call(h.a, h.b, 1000, []() -> Task<Bytes> { co_return 1000; }));
  EXPECT_NEAR(static_cast<double>(h.net.bytes_sent()),
              2.0 * static_cast<double>(plain_bytes), 4.0);
}

TEST(RmiTest, StubExchangeCostsOneRoundTrip) {
  Harness h;
  RmiTransport rmi{h.net, no_jitter_rmi()};
  Duration d = h.timed(rmi.stub_exchange(h.a, h.b));
  EXPECT_NEAR(d.as_millis(), 200.0, 1.0);
  EXPECT_EQ(rmi.stub_exchanges(), 1u);
  EXPECT_EQ(h.timed(rmi.stub_exchange(h.b, h.b)), Duration::zero());
}

TEST(RmiTest, ServerWorkIncludedInCallTime) {
  Harness h;
  RmiTransport rmi{h.net, no_jitter_rmi()};
  Duration d = h.timed(rmi.call(h.a, h.b, 10, [&]() -> Task<Bytes> {
    co_await h.sim.wait(ms(30));
    co_return 10;
  }));
  EXPECT_NEAR(d.as_millis(), 230.0, 1.0);
}

// --- lookahead domains (the event-order partition, DESIGN §15) -------------

TEST(LookaheadDomainsTest, WanLinksSeparateLanIslands) {
  Simulator sim;
  Topology topo{sim};
  auto a = topo.add_node("a", NodeRole::kAppServer);
  auto b = topo.add_node("b", NodeRole::kDatabaseServer);
  auto c = topo.add_node("c", NodeRole::kAppServer);
  auto d = topo.add_node("d", NodeRole::kClientMachine);
  topo.add_link(a, b, sim::us(500));  // LAN: same island
  topo.add_link(b, c, ms(40));        // WAN: boundary
  topo.add_link(c, d, ms(1));         // LAN: c and d share an island

  const std::vector<std::uint32_t> dom = topo.lookahead_domains(ms(10));
  ASSERT_EQ(dom.size(), 4u);
  EXPECT_EQ(dom[a.value()], dom[b.value()]);
  EXPECT_EQ(dom[c.value()], dom[d.value()]);
  EXPECT_NE(dom[a.value()], dom[c.value()]);
  // Dense ids in node order: the island of the lowest node id is domain 0.
  EXPECT_EQ(dom[a.value()], 0u);
  EXPECT_EQ(dom[c.value()], 1u);
}

TEST(LookaheadDomainsTest, AllLanIsOneDomainAndIsolatedNodesAreTheirOwn) {
  Simulator sim;
  Topology topo{sim};
  auto a = topo.add_node("a", NodeRole::kAppServer);
  auto b = topo.add_node("b", NodeRole::kAppServer);
  auto c = topo.add_node("c", NodeRole::kAppServer);  // no links at all
  topo.add_link(a, b, sim::us(100));

  const std::vector<std::uint32_t> dom = topo.lookahead_domains(ms(10));
  EXPECT_EQ(dom[a.value()], dom[b.value()]);
  EXPECT_NE(dom[c.value()], dom[a.value()]);
}

TEST(LookaheadDomainsTest, DownedWanLinkIsStillABoundary) {
  // Link up/down state is ignored: a flapping link does not change the
  // partition (and with it the event order).
  Simulator sim;
  Topology topo{sim};
  auto a = topo.add_node("a", NodeRole::kAppServer);
  auto b = topo.add_node("b", NodeRole::kAppServer);
  topo.add_link(a, b, ms(40));
  topo.set_link_state(a, b, false);
  const std::vector<std::uint32_t> dom = topo.lookahead_domains(ms(10));
  EXPECT_NE(dom[a.value()], dom[b.value()]);
}

}  // namespace
}  // namespace mutsvc::net
