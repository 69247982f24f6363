// Failure injection and the relaxed-consistency extension: link/node
// failures, entry-point failover, JMS redelivery, version-monotonic cache
// fills, and the TACT-style staleness bound.
#include <gtest/gtest.h>


#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "cache/read_only_cache.hpp"
#include "cache/update.hpp"
#include "component/kind.hpp"
#include "component/runtime.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "db/database.hpp"
#include "messaging/topic.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/resilience.hpp"
#include "net/rmi.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace mutsvc {
namespace {

using sim::Duration;
using sim::ms;
using sim::sec;
using sim::Simulator;
using sim::Task;

// --- topology failure primitives ----------------------------------------------

struct FailWorld {
  Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId a, r, b;
  net::Network net{sim, topo, Duration::zero()};

  FailWorld() {
    a = topo.add_node("a", net::NodeRole::kAppServer);
    r = topo.add_node("r", net::NodeRole::kRouter);
    b = topo.add_node("b", net::NodeRole::kAppServer);
    topo.add_link(a, r, ms(10));
    topo.add_link(r, b, ms(10));
  }
};

TEST(FailureTest, LinkDownBreaksRoute) {
  FailWorld w;
  EXPECT_TRUE(w.topo.reachable(w.a, w.b));
  w.topo.set_link_state(w.r, w.b, false);
  EXPECT_FALSE(w.topo.reachable(w.a, w.b));
  EXPECT_TRUE(w.topo.reachable(w.a, w.r));
  EXPECT_THROW((void)w.topo.path(w.a, w.b), net::NoRouteError);
}

TEST(FailureTest, LinkRecoveryRestoresRoute) {
  FailWorld w;
  w.topo.set_link_state(w.r, w.b, false);
  w.topo.set_link_state(w.r, w.b, true);
  EXPECT_TRUE(w.topo.reachable(w.a, w.b));
  EXPECT_NEAR(w.topo.path_latency(w.a, w.b).as_millis(), 20.0, 0.01);
}

TEST(FailureTest, AlternatePathUsedWhenPrimaryDown) {
  FailWorld w;
  // Add a slower bypass a—b.
  w.topo.add_link(w.a, w.b, ms(50));
  EXPECT_NEAR(w.topo.path_latency(w.a, w.b).as_millis(), 20.0, 0.01);
  w.topo.set_link_state(w.a, w.r, false);
  EXPECT_NEAR(w.topo.path_latency(w.a, w.b).as_millis(), 50.0, 0.01);
}

TEST(FailureTest, NodeDownIsolatesIt) {
  FailWorld w;
  w.topo.set_node_state(w.r, false);
  EXPECT_FALSE(w.topo.reachable(w.a, w.b));
  EXPECT_FALSE(w.topo.reachable(w.a, w.r));
  w.topo.set_node_state(w.r, true);
  EXPECT_TRUE(w.topo.reachable(w.a, w.b));
}

TEST(FailureTest, SetStateOnMissingLinkThrows) {
  FailWorld w;
  EXPECT_THROW(w.topo.set_link_state(w.a, w.b, false), std::invalid_argument);
}

TEST(FailureTest, DeliverToPartitionedNodeThrows) {
  FailWorld w;
  w.topo.set_node_state(w.b, false);
  bool threw = false;
  w.sim.spawn([](FailWorld& w, bool& threw) -> Task<void> {
    try {
      co_await w.net.deliver(w.a, w.b, 100);
    } catch (const net::NoRouteError&) {
      threw = true;
    }
  }(w, threw));
  w.sim.run_until();
  EXPECT_TRUE(threw);
}

// --- JMS redelivery ---------------------------------------------------------------

TEST(FailureTest, TopicRedeliversAfterPartitionHeals) {
  FailWorld w;
  msg::Topic<int> topic{w.net, w.a, "updates", Duration::zero()};
  topic.set_retry_interval(ms(100));
  int received = 0;
  topic.subscribe(w.b, [&received](const int&) -> Task<void> {
    ++received;
    co_return;
  });

  w.topo.set_node_state(w.b, false);
  w.sim.spawn([](msg::Topic<int>& t, FailWorld& w) -> Task<void> {
    co_await t.publish(w.a, 1, 64);
  }(topic, w));
  w.sim.schedule_after(ms(450), [&] { w.topo.set_node_state(w.b, true); });
  w.sim.run_until();

  EXPECT_EQ(received, 1);
  EXPECT_GE(topic.delivery_retries(), 3u);
  EXPECT_TRUE(topic.quiescent());
}

// --- version-monotonic cache fills ---------------------------------------------------

TEST(CacheRaceTest, StalePullCannotClobberNewerPush) {
  cache::ReadOnlyCache c{"Item"};
  c.apply_push(1, db::RowRef::make(db::Row{std::int64_t{1}, std::int64_t{99}}), /*version=*/5);
  // A pull refresh that started before the write commits arrives late with
  // version 4: it must be rejected.
  c.fill(1, db::RowRef::make(db::Row{std::int64_t{1}, std::int64_t{11}}), /*version=*/4);
  auto entry = c.get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(db::as_int((*entry->row)[1]), 99);
  EXPECT_EQ(c.stale_fills_rejected(), 1u);
}

TEST(CacheRaceTest, QueryCacheFillIsVersionMonotonic) {
  cache::QueryCache qc;
  qc.apply_push("k", {db::RowRef::make(db::Row{std::int64_t{2}})}, 7);
  qc.fill("k", {db::RowRef::make(db::Row{std::int64_t{1}})}, 3);
  auto entry = qc.get("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 7u);
}

// --- end-to-end failover --------------------------------------------------------------

core::ExperimentSpec failover_spec(bool enabled) {
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.duration = sec(600);
  spec.warmup = sec(60);
  spec.failover_enabled = enabled;
  spec.failover_timeout = sec(2);
  return spec;
}

TEST(FailoverTest, EdgeCrashFailsOverToMainWithoutLosingRequests) {
  apps::rubis::RubisApp app;
  core::Experiment exp{app.driver(), failover_spec(true), core::rubis_calibration()};
  net::Topology& topo = exp.network().topology();
  const net::NodeId edge = exp.nodes().edge_servers[0];
  exp.simulator().schedule_at(sim::SimTime::origin() + sec(200),
                              [&topo, edge] { topo.set_node_state(edge, false); });
  exp.simulator().schedule_at(sim::SimTime::origin() + sec(400),
                              [&topo, edge] { topo.set_node_state(edge, true); });
  exp.run();

  EXPECT_GT(exp.failovers(), 100u);       // the affected group kept being served
  EXPECT_EQ(exp.dropped_requests(), 0u);  // nothing lost
  // The failed-over requests pay the connect timeout + WAN path, so the
  // remote mean sits well above the healthy async level but stays bounded.
  const double remote = exp.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);
  EXPECT_GT(remote, 50.0);
  EXPECT_LT(remote, 2000.0);
}

TEST(FailoverTest, WithoutFailoverRequestsAreDropped) {
  apps::rubis::RubisApp app;
  core::Experiment exp{app.driver(), failover_spec(false), core::rubis_calibration()};
  net::Topology& topo = exp.network().topology();
  const net::NodeId edge = exp.nodes().edge_servers[0];
  exp.simulator().schedule_at(sim::SimTime::origin() + sec(200),
                              [&topo, edge] { topo.set_node_state(edge, false); });
  exp.run();
  EXPECT_EQ(exp.failovers(), 0u);
  EXPECT_GT(exp.dropped_requests(), 100u);
}

TEST(FailoverTest, HealthyRunNeverFailsOver) {
  apps::rubis::RubisApp app;
  core::ExperimentSpec spec = failover_spec(true);
  spec.duration = sec(200);
  core::Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();
  EXPECT_EQ(exp.failovers(), 0u);
  EXPECT_EQ(exp.dropped_requests(), 0u);
}

// --- staleness bound -------------------------------------------------------------------

TEST(StalenessBoundTest, BoundZeroNeverStallsWriter) {
  apps::rubis::RubisApp app;
  core::ExperimentSpec spec = failover_spec(true);
  spec.duration = sec(300);
  core::Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();
  EXPECT_EQ(exp.runtime().bounded_waits(), 0u);
}

TEST(StalenessBoundTest, DescriptorCarriesTheBound) {
  // The §5 "relaxed consistency parameters should also go here" claim: the
  // bound travels in the extended deployment descriptor (see
  // descriptor_test.cpp for full round-trip coverage).
  comp::DeploymentPlan plan;
  plan.set_staleness_bound(3);
  EXPECT_EQ(plan.staleness_bound(), 3u);
}

// --- circuit breaker ------------------------------------------------------------------

sim::SimTime at(double s) { return sim::SimTime::origin() + sim::Duration::seconds(s); }

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  net::CircuitBreaker br{3, sec(5)};
  EXPECT_TRUE(br.allow(at(0)));
  br.on_failure(at(0));
  br.on_failure(at(1));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kClosed);
  br.on_failure(at(2));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opened(), 1u);
  EXPECT_FALSE(br.allow(at(3)));
  EXPECT_TRUE(br.would_reject(at(3)));
  EXPECT_EQ(br.rejected(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  net::CircuitBreaker br{3, sec(5)};
  br.on_failure(at(0));
  br.on_failure(at(1));
  br.on_success(at(2));
  br.on_failure(at(3));
  br.on_failure(at(4));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsSingleProbe) {
  net::CircuitBreaker br{1, sec(5)};
  br.on_failure(at(0));  // open until t=5
  EXPECT_FALSE(br.allow(at(4.9)));
  EXPECT_TRUE(br.allow(at(5.1)));  // the probe
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(br.half_opened(), 1u);
  EXPECT_FALSE(br.allow(at(5.2)));  // probe in flight: everyone else waits
  br.on_success(at(5.3));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(br.closed(), 1u);
  EXPECT_TRUE(br.allow(at(5.4)));
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  net::CircuitBreaker br{1, sec(5)};
  br.on_failure(at(0));
  EXPECT_TRUE(br.allow(at(6)));  // probe
  br.on_failure(at(6.1));
  EXPECT_EQ(br.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opened(), 2u);
  EXPECT_FALSE(br.allow(at(10)));   // new open window runs 6.1 .. 11.1
  EXPECT_TRUE(br.allow(at(11.2)));  // second probe
}

// --- fault injection: loss and accounting --------------------------------------------

TEST(FaultInjectionTest, LostMessageRaisesDeliveryErrorAndIsCounted) {
  FailWorld w;
  net::FaultPlan plan;
  plan.loss_prob = 1.0;
  net::FaultInjector inj{w.sim, w.topo, plan};
  w.net.set_fault_injector(&inj);

  bool threw = false;
  sim::SimTime done;
  w.sim.spawn([](FailWorld& w, bool& threw, sim::SimTime& done) -> Task<void> {
    try {
      co_await w.net.deliver(w.a, w.b, 1000);
    } catch (const net::DeliveryError&) {
      threw = true;
    }
    done = w.sim.now();
  }(w, threw, done));
  w.sim.run_until();

  EXPECT_TRUE(threw);
  // The loss surfaces only after the would-be transmission time of the
  // losing hop — never instantaneously.
  EXPECT_GT(done, sim::SimTime::origin());
  EXPECT_EQ(w.net.messages_sent(), 1u);  // lost messages still occupied the wire
  EXPECT_EQ(w.net.messages_lost(), 1u);
  EXPECT_EQ(w.net.bytes_lost(), 1000u);
}

TEST(FaultInjectionTest, NoRouteGeneratesNoTraffic) {
  FailWorld w;
  w.topo.set_node_state(w.b, false);
  bool threw = false;
  w.sim.spawn([](FailWorld& w, bool& threw) -> Task<void> {
    try {
      co_await w.net.deliver(w.a, w.b, 1000);
    } catch (const net::NoRouteError&) {
      threw = true;
    }
  }(w, threw));
  w.sim.run_until();
  EXPECT_TRUE(threw);
  EXPECT_EQ(w.net.messages_sent(), 0u);
  EXPECT_EQ(w.net.messages_lost(), 0u);
}

TEST(FaultInjectionTest, TopicRedeliversThroughMessageLoss) {
  FailWorld w;
  net::FaultPlan plan;
  plan.loss_prob = 1.0;  // silent loss, not a partition: drain must retry too
  net::FaultInjector inj{w.sim, w.topo, plan};
  w.net.set_fault_injector(&inj);

  msg::Topic<int> topic{w.net, w.a, "updates", Duration::zero()};
  topic.set_retry_interval(ms(100));
  int received = 0;
  topic.subscribe(w.b, [&received](const int&) -> Task<void> {
    ++received;
    co_return;
  });

  // Total loss for the first 450ms, lossless afterwards.
  w.sim.schedule_after(ms(450), [&w] { w.net.set_fault_injector(nullptr); });
  w.sim.spawn([](msg::Topic<int>& t, FailWorld& w) -> Task<void> {
    co_await t.publish(w.a, 7, 64);
  }(topic, w));
  w.sim.run_until();

  EXPECT_EQ(received, 1);
  EXPECT_GE(topic.delivery_retries(), 1u);
  EXPECT_TRUE(topic.quiescent());
}

// --- resilient RMI --------------------------------------------------------------------

TEST(ResilienceTest, RetryExhaustionOpensBreakerAndFastFails) {
  FailWorld w;
  net::FaultPlan plan;
  plan.loss_prob = 1.0;  // every message is lost
  net::FaultInjector inj{w.sim, w.topo, plan};
  w.net.set_fault_injector(&inj);

  net::RmiTransport rmi{w.net};
  net::ResilienceConfig res;
  res.enabled = true;
  res.max_retries = 2;
  res.call_timeout = ms(100);
  res.backoff_base = ms(10);
  res.breaker_failure_threshold = 3;
  rmi.set_resilience(res);

  int delivery_errors = 0;
  int circuit_rejections = 0;
  int server_runs = 0;
  w.sim.spawn([](FailWorld& w, net::RmiTransport& rmi, int& de, int& cr,
                 int& runs) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      bool threw_delivery = false;
      bool threw_open = false;
      try {
        co_await rmi.call(w.a, w.b, 100, [&runs]() -> Task<net::Bytes> {
          ++runs;
          co_return 100;
        });
      } catch (const net::CircuitOpenError&) {
        threw_open = true;
      } catch (const net::DeliveryError&) {
        threw_delivery = true;
      }
      if (threw_delivery) ++de;
      if (threw_open) ++cr;
    }
  }(w, rmi, delivery_errors, circuit_rejections, server_runs));
  w.sim.run_until();

  EXPECT_EQ(delivery_errors, 1);    // first call exhausts its 3 attempts
  EXPECT_EQ(circuit_rejections, 3);  // breaker opened: the rest fast-fail
  EXPECT_EQ(server_runs, 0);         // no request ever arrived
  EXPECT_EQ(rmi.retries(), 2u);
  EXPECT_EQ(rmi.timeouts(), 3u);
  EXPECT_EQ(rmi.failed_calls(), 1u);
  EXPECT_EQ(rmi.breaker_opens(), 1u);
  EXPECT_EQ(rmi.breaker_rejections(), 3u);
  EXPECT_TRUE(rmi.fast_fail(w.b));
}

TEST(ResilienceTest, RetrySucceedsAfterTransientLossWithoutRerunningServerWork) {
  FailWorld w;
  net::FaultPlan plan;
  plan.loss_prob = 1.0;
  net::FaultInjector inj{w.sim, w.topo, plan};
  w.net.set_fault_injector(&inj);

  net::RmiTransport rmi{w.net};
  net::ResilienceConfig res;
  res.enabled = true;
  res.max_retries = 5;
  res.call_timeout = ms(100);
  res.backoff_base = ms(10);
  res.breaker_failure_threshold = 100;  // keep the breaker out of this test
  rmi.set_resilience(res);

  // Loss stops after 250ms: the attempts underway then start succeeding.
  w.sim.schedule_after(ms(250), [&w] { w.net.set_fault_injector(nullptr); });

  int server_runs = 0;
  bool ok = false;
  w.sim.spawn([](FailWorld& w, net::RmiTransport& rmi, int& runs, bool& ok) -> Task<void> {
    co_await rmi.call(w.a, w.b, 100, [&runs]() -> Task<net::Bytes> {
      ++runs;
      co_return 100;
    });
    ok = true;
  }(w, rmi, server_runs, ok));
  w.sim.run_until();

  EXPECT_TRUE(ok);
  EXPECT_EQ(server_runs, 1);  // exactly-once across all retries
  EXPECT_GE(rmi.retries(), 1u);
  EXPECT_EQ(rmi.failed_calls(), 0u);
}

TEST(ResilienceTest, TracedRetryRunsWorkOnceAndBillsWireTimeOnce) {
  // The first attempt's request is lost; the retry succeeds. One RMI call
  // path carries tracing, retries and at-most-once execution together.
  FailWorld w;
  net::FaultPlan plan;
  plan.loss_prob = 1.0;
  net::FaultInjector inj{w.sim, w.topo, plan};
  w.net.set_fault_injector(&inj);
  // The request dies on its first hop (10 ms); loss stops before the retry.
  w.sim.schedule_after(ms(50), [&w] { w.net.set_fault_injector(nullptr); });

  net::RmiConfig cfg;
  cfg.extra_rtt_prob = 0.0;
  net::RmiTransport rmi{w.net, cfg};
  net::ResilienceConfig res;
  res.enabled = true;
  res.call_timeout = ms(100);
  res.backoff_base = ms(10);
  res.backoff_jitter = 0.0;
  rmi.set_resilience(res);

  stats::TraceSink sink;
  int server_runs = 0;
  sim::SimTime start, end;
  w.sim.spawn([](FailWorld& w, net::RmiTransport& rmi, stats::TraceSink& sink, int& runs,
                 sim::SimTime& start, sim::SimTime& end) -> Task<void> {
    start = w.sim.now();
    co_await rmi.call(
        w.a, w.b, 100,
        [&w, &runs]() -> Task<net::Bytes> {
          ++runs;
          co_await w.sim.wait(ms(30));
          co_return 100;
        },
        &sink);
    end = w.sim.now();
  }(w, rmi, sink, server_runs, start, end));
  w.sim.run_until();

  EXPECT_EQ(server_runs, 1);
  EXPECT_EQ(rmi.retries(), 1u);
  EXPECT_EQ(rmi.timeouts(), 1u);
  const Duration elapsed = end - start;
  // Timeout, backoff, then a full exchange (two 20 ms one-way trips).
  EXPECT_EQ(elapsed, res.call_timeout + res.backoff_base + ms(40) + ms(30));
  EXPECT_EQ(sink.total(stats::SpanKind::kRmiWire), elapsed - ms(30));
  EXPECT_EQ(sink.sum(), elapsed - ms(30));  // the server work billed nothing itself
  ASSERT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.open_span_count(), 0u);
  EXPECT_EQ(sink.spans()[0].kind, stats::SpanKind::kRmiWire);
  EXPECT_EQ(sink.spans()[0].start, start);
  EXPECT_EQ(sink.spans()[0].end, end);
}

// --- graceful degradation (component runtime) -----------------------------------------

/// Main + one edge across a 50ms link; Facade runs at both, Item has an RO
/// replica at the edge.
struct DegradedWorld {
  Simulator sim{11};
  net::Topology topo{sim};
  net::NodeId main, edge;
  net::Network net{sim, topo, Duration::zero()};
  net::RmiTransport rmi{net, quiet_rmi()};
  std::unique_ptr<db::Database> db;
  comp::Application app{"degraded"};
  std::unique_ptr<comp::Runtime> rt;

  static net::RmiConfig quiet_rmi() {
    net::RmiConfig cfg;
    cfg.extra_rtt_prob = 0.0;
    cfg.dgc_traffic_factor = 1.0;
    return cfg;
  }

  static db::DbCostModel zero_db_cost() {
    db::DbCostModel m;
    m.pk_lookup = m.finder_base = m.aggregate_base = m.keyword_base = Duration::zero();
    m.finder_per_row = m.aggregate_per_row = m.keyword_per_row = Duration::zero();
    m.update = m.insert = m.del = Duration::zero();
    return m;
  }

  DegradedWorld() {
    main = topo.add_node("main", net::NodeRole::kAppServer);
    edge = topo.add_node("edge", net::NodeRole::kAppServer);
    topo.add_link(main, edge, ms(50), 100e6);

    net::ResilienceConfig res;
    res.enabled = true;
    res.max_retries = 1;
    res.call_timeout = ms(200);
    res.backoff_base = ms(10);
    res.breaker_failure_threshold = 2;
    res.breaker_open_for = sec(5);
    rmi.set_resilience(res);

    db = std::make_unique<db::Database>(topo, main, zero_db_cost());
    auto& items = db->create_table("item", {{"id", db::ColumnType::kInt},
                                            {"price", db::ColumnType::kReal}});
    items.insert(db::Row{std::int64_t{1}, 10.0});
    items.insert(db::Row{std::int64_t{2}, 20.0});

    auto& facade = app.define("Facade", comp::ComponentKind::kStatelessSessionBean);
    facade.method({.name = "get",
                   .cpu = Duration::zero(),
                   .body = [](comp::CallContext& ctx) -> Task<void> {
                     auto row = co_await ctx.read_entity("Item", ctx.arg_int(0));
                     if (row) ctx.result.push_back(std::move(row));
                   }});
    facade.method({.name = "buy",
                   .cpu = Duration::zero(),
                   .body = [](comp::CallContext& ctx) -> Task<void> {
                     co_await ctx.write_entity("Item", ctx.arg_int(0), "price", 99.0);
                   }});

    comp::DeploymentPlan plan;
    plan.set_main_server(main);
    plan.add_edge_server(edge);
    plan.place("Facade", main);
    plan.place("Facade", edge);
    plan.enable(comp::Feature::kStatefulComponentCaching);
    plan.replicate_read_only("Item", edge);

    comp::RuntimeConfig cfg;
    cfg.local_dispatch = cfg.entity_access = cfg.cache_access = Duration::zero();
    cfg.apply_update = cfg.mdb_dispatch = cfg.jms_accept = Duration::zero();
    cfg.ro_ttl = ms(100);  // vendor-style expiry, so entries go stale
    rt = std::make_unique<comp::Runtime>(sim, topo, net, rmi, *db, app, std::move(plan), cfg);
    rt->bind_entity("Item", "item");
  }
};

TEST(DegradedModeTest, PartitionServesStaleReadsAndQueuesWrites) {
  DegradedWorld w;
  int read_rows = 0;
  bool write_ok = false;
  w.sim.spawn([](DegradedWorld& w, int& read_rows, bool& write_ok) -> Task<void> {
    // Warm the edge replica, then let the entry pass its TTL.
    (void)co_await w.rt->invoke(w.edge, "Facade", "get", std::int64_t{1});
    co_await w.sim.wait(ms(300));
    // Partition the edge from the master.
    w.topo.set_link_state(w.main, w.edge, false);
    // TTL-expired entry + unreachable master: the degraded read serves it.
    auto res = co_await w.rt->invoke(w.edge, "Facade", "get", std::int64_t{1});
    read_rows = static_cast<int>(res.rows.size());
    // A write accepted at the edge during the outage is queued.
    (void)co_await w.rt->invoke(w.edge, "Facade", "buy", std::int64_t{2});
    write_ok = true;
    // Heal; the queue drains to the master.
    co_await w.sim.wait(sec(3));
    w.topo.set_link_state(w.main, w.edge, true);
  }(w, read_rows, write_ok));
  w.sim.run_until();

  EXPECT_EQ(read_rows, 1);
  EXPECT_TRUE(write_ok);
  EXPECT_GE(w.rt->degraded_reads(), 1u);
  EXPECT_EQ(w.rt->queued_writes(), 1u);
  EXPECT_EQ(w.rt->queued_writes_applied(), 1u);
  EXPECT_EQ(w.rt->queued_writes_dropped(), 0u);
  EXPECT_TRUE(w.rt->write_queues_quiescent());
  // The queued write reached the master's table.
  auto row = w.db->table("item").get(2);
  ASSERT_TRUE(row);
  EXPECT_DOUBLE_EQ(db::as_real((*row)[1]), 99.0);
}

// --- fault-plan driven experiments ----------------------------------------------------

net::NodeId probe_edge_node() {
  // Testbed construction is deterministic: learn the edge's NodeId from a
  // throwaway instance so a FaultPlan can reference it.
  apps::rubis::RubisApp app;
  core::Experiment probe{app.driver(), failover_spec(true), core::rubis_calibration()};
  return probe.nodes().edge_servers[0];
}

TEST(FaultPlanTest, CrashRestartRewarmsEdgeCaches) {
  const net::NodeId edge = probe_edge_node();
  apps::rubis::RubisApp app;
  core::ExperimentSpec spec = failover_spec(true);
  spec.duration = sec(400);
  spec.fault_plan.crashes.push_back(net::FaultPlan::NodeCrash{edge, sec(150), sec(60)});
  spec.resilience.enabled = true;
  core::Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();

  ASSERT_NE(exp.fault_injector(), nullptr);
  EXPECT_EQ(exp.fault_injector()->crashes(), 1u);
  EXPECT_EQ(exp.fault_injector()->restarts(), 1u);
  EXPECT_EQ(exp.runtime().cache_rewarms(), 1u);
  // Failover kept the affected group served while the edge was down.
  EXPECT_GT(exp.failovers(), 0u);
  EXPECT_GT(exp.results().success_fraction(), 0.99);
}

struct RunNumbers {
  double success = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  double remote_browser_ms = 0.0;
};

RunNumbers lossy_run(double loss, bool resilient, std::uint64_t seed = 42) {
  apps::rubis::RubisApp app;
  core::ExperimentSpec spec = failover_spec(true);
  spec.duration = sec(300);
  spec.warmup = sec(60);
  spec.seed = seed;
  spec.fault_plan.loss_prob = loss;
  spec.resilience.enabled = resilient;
  core::Experiment exp{app.driver(), spec, core::rubis_calibration()};
  exp.run();
  RunNumbers n;
  n.success = exp.results().success_fraction();
  n.failures = exp.results().failures();
  n.lost = exp.network().messages_lost();
  n.retries = exp.rmi().retries();
  n.degraded = exp.runtime().degraded_reads();
  n.remote_browser_ms = exp.results().pattern_mean_ms("Browser", stats::ClientGroup::kRemote);
  return n;
}

TEST(FaultPlanTest, ResilienceKeepsSuccessHighUnderLoss) {
  RunNumbers on = lossy_run(0.02, true);
  RunNumbers off = lossy_run(0.02, false);
  EXPECT_GT(on.success, 0.99);
  EXPECT_LT(off.success, on.success);  // resilience-off is measurably worse
  EXPECT_GT(on.retries, 0u);
  EXPECT_GT(on.lost, 0u);
}

TEST(FaultPlanTest, IdenticalSeedsProduceIdenticalRuns) {
  RunNumbers a = lossy_run(0.02, true, 7);
  RunNumbers b = lossy_run(0.02, true, 7);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_DOUBLE_EQ(a.success, b.success);
  EXPECT_DOUBLE_EQ(a.remote_browser_ms, b.remote_browser_ms);
}

// --- sharded async updates under loss ----------------------------------------

TEST(ShardFaultTest, ShardedAsyncRunConvergesEdgeReplicasUnderLoss) {
  // End to end: async updates on 3 shard topics under 2% message loss with
  // the resilience layer on. After the run drains, every edge replica entry
  // must equal the master database's row — per-shard publishing plus loss
  // plus redelivery dropped no final state and rolled nothing back.
  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kAsyncUpdates;
  spec.shard.shards = 3;
  spec.duration = sec(300);
  spec.warmup = sec(60);
  spec.fault_plan.loss_prob = 0.02;
  spec.resilience.enabled = true;
  core::Experiment exp{app.driver(), spec, core::petstore_calibration()};
  exp.run();
  // run() stops at the load end; give in-flight JMS redeliveries time to
  // drain before checking convergence.
  (void)exp.simulator().run_until(sim::SimTime::origin() + spec.duration + sec(60));

  EXPECT_TRUE(exp.runtime().updates_quiescent());
  // Every shard lane carried traffic: the writes spread over the topics.
  ASSERT_EQ(exp.runtime().update_topic_count(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(exp.runtime().update_topic(s)->published(), 0u) << "shard " << s;
  }
  EXPECT_GT(exp.network().messages_lost(), 0u);
  EXPECT_GT(exp.results().success_fraction(), 0.99);

  const std::vector<db::RowRef> master =
      exp.database().table("inventory").scan([](const db::Row&) { return true; });
  ASSERT_FALSE(master.empty());
  std::size_t compared = 0;
  for (net::NodeId edge : exp.nodes().edge_servers) {
    cache::ReadOnlyCache& replica = exp.runtime().ro_cache(edge, "Inventory");
    for (const db::RowRef& row : master) {
      auto entry = replica.get(db::as_int((*row)[0]));
      if (entry == nullptr) continue;  // never read or pushed at this edge
      ++compared;
      EXPECT_EQ(*entry->row, *row) << "edge " << edge.value() << " pk " << db::as_int((*row)[0]);
    }
  }
  EXPECT_GT(compared, 0u);  // the battery actually compared something
}

}  // namespace
}  // namespace mutsvc
