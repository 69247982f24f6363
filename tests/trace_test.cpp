// Observability subsystem: hierarchical span-tree tracing, the metrics
// registry, the Chrome-trace exporter, and the end-to-end conformance
// invariant (sum of exclusive totals == measured response time, exactly).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/petstore/petstore.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "stats/chrome_trace.hpp"
#include "stats/metrics.hpp"
#include "stats/trace.hpp"

namespace mutsvc {
namespace {

using sim::ms;
using sim::SimTime;
using stats::SpanKind;
using stats::TraceSink;

SimTime at(int millis) { return SimTime::origin() + ms(millis); }

// --- TraceSink: span tree mechanics -----------------------------------------

TEST(TraceSinkTest, FlatTotalsAreAdditive) {
  TraceSink t;
  t.add(SpanKind::kHttpWire, ms(10));
  t.add(SpanKind::kCpu, ms(5));
  t.add(SpanKind::kCpu, ms(3));
  EXPECT_EQ(t.total(SpanKind::kCpu), ms(8));
  EXPECT_EQ(t.sum(), ms(18));
  EXPECT_TRUE(t.conforms(ms(18)));
  EXPECT_FALSE(t.conforms(ms(18) + sim::us(1)));  // exact, no tolerance
}

TEST(TraceSinkTest, BeginEndBuildsATree) {
  TraceSink t;
  const auto root = t.begin_span(SpanKind::kHttpWire, "http", 0, 1, at(0));
  const auto rmi = t.begin_span(SpanKind::kRmiWire, "rmi", 1, 2, at(2));
  t.leaf(SpanKind::kJdbc, "write:Order", 2, 2, at(3), at(4));
  t.end_span(rmi, at(8));
  t.end_span(root, at(10));

  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.open_span_count(), 0u);
  const auto& spans = t.spans();
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, rmi);
  EXPECT_EQ(spans[0].duration(), ms(10));
  EXPECT_EQ(spans[1].duration(), ms(6));

  auto roots = t.children(0);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->id, root);
  auto under_rmi = t.children(rmi);
  ASSERT_EQ(under_rmi.size(), 1u);
  EXPECT_EQ(under_rmi[0]->label, "write:Order");
}

TEST(TraceSinkTest, EndSpanClosesAbandonedChildren) {
  // An exception unwinding through nested frames can leave inner spans
  // open; closing an outer span must defensively close them at its end.
  TraceSink t;
  const auto outer = t.begin_span(SpanKind::kHttpWire, "http", 0, 1, at(0));
  (void)t.begin_span(SpanKind::kRmiWire, "rmi", 1, 2, at(1));
  t.end_span(outer, at(5));
  EXPECT_EQ(t.open_span_count(), 0u);
  EXPECT_EQ(t.spans()[1].end, at(5));
}

TEST(TraceSinkTest, LeafDoesNotTouchTheOpenStack) {
  TraceSink t;
  const auto root = t.begin_span(SpanKind::kHttpWire, "http", 0, 1, at(0));
  t.leaf(SpanKind::kPush, "push:edge-1", 1, 2, at(1), at(2));
  t.leaf(SpanKind::kPush, "push:edge-2", 1, 3, at(2), at(3));
  EXPECT_EQ(t.open_span_count(), 1u);  // only the root is open
  EXPECT_EQ(t.children(root).size(), 2u);
  // Leaves are tree-only: the flat totals are untouched.
  EXPECT_EQ(t.sum(), sim::Duration::zero());
  t.end_span(root, at(4));
}

TEST(TraceSinkTest, ClearResetsEverything) {
  TraceSink t;
  t.set_trace_id(7);
  t.add(SpanKind::kCpu, ms(1));
  (void)t.begin_span(SpanKind::kHttpWire, "http", 0, 1, at(0));
  t.clear();
  EXPECT_EQ(t.trace_id(), 0u);
  EXPECT_EQ(t.sum(), sim::Duration::zero());
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.open_span_count(), 0u);
}

// --- Histogram / MetricsRegistry --------------------------------------------

TEST(HistogramTest, ObserveBucketsAtBoundsInclusively) {
  stats::Histogram h{{10.0, 20.0, 50.0}};
  h.observe(10.0);  // == bound: lands in the <=10 bucket
  h.observe(10.5);
  h.observe(49.9);
  h.observe(1000.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.5 + 49.9 + 1000.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(3), 0u);
}

TEST(HistogramTest, BoundsMustBeStrictlyIncreasing) {
  EXPECT_THROW(stats::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(stats::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistryTest, CountersGaugesHistogramsSeries) {
  stats::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("absent"), 0u);
  m.inc("rmi.retries");
  m.inc("rmi.retries", 2);
  m.set_counter("qcache.hits", 40);
  EXPECT_EQ(m.counter("rmi.retries"), 3u);
  EXPECT_EQ(m.counter("qcache.hits"), 40u);

  m.set_gauge("qcache.hit_rate", 0.75);
  EXPECT_DOUBLE_EQ(m.gauge("qcache.hit_rate"), 0.75);
  EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);

  m.observe("response_ms", 42.0);
  EXPECT_EQ(m.histogram("response_ms").count(), 1u);
  // Create-on-first-use honors bounds only at creation.
  stats::Histogram& h = m.histogram("custom", {1.0, 2.0});
  EXPECT_EQ(m.histogram("custom", {9.0}).bounds().size(), 2u);
  EXPECT_EQ(&m.histogram("custom"), &h);

  EXPECT_EQ(m.find_series("topic.updates.pending"), nullptr);
  m.series("topic.updates.pending", sim::sec(10)).add(at(0), 3.0);
  ASSERT_NE(m.find_series("topic.updates.pending"), nullptr);
  EXPECT_EQ(m.find_series("topic.updates.pending")->window_count(), 1u);

  EXPECT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
}

// --- ChromeTraceWriter -------------------------------------------------------

TEST(ChromeTraceWriterTest, SamplesEveryNth) {
  stats::ChromeTraceWriter w{2};
  TraceSink t;
  t.leaf(SpanKind::kCpu, "cpu", 0, 0, at(0), at(1));
  EXPECT_TRUE(w.offer(t, "a"));
  EXPECT_FALSE(w.offer(t, "b"));
  EXPECT_TRUE(w.offer(t, "c"));
  EXPECT_EQ(w.offered(), 3u);
  EXPECT_EQ(w.recorded(), 2u);
}

TEST(ChromeTraceWriterTest, WritesCompleteEventsInSimMicros) {
  stats::ChromeTraceWriter w;
  w.name_process(3, "main-as");
  TraceSink t;
  t.set_trace_id(5);
  const auto root = t.begin_span(SpanKind::kHttpWire, "http", 1, 3, at(1));
  t.leaf(SpanKind::kJdbc, "write:\"Order\"", 3, 3, at(2), at(3));
  t.end_span(root, at(4));
  ASSERT_TRUE(w.offer(t, "Commit"));

  std::ostringstream os;
  w.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main-as\""), std::string::npos);
  // Root span name is prefixed with the trace label; ts/dur in sim micros.
  EXPECT_NE(json.find("\"name\":\"Commit: http\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000,\"dur\":3000"), std::string::npos);
  // Quotes in labels are escaped.
  EXPECT_NE(json.find("write:\\\"Order\\\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":5"), std::string::npos);
}

// --- resilience counters mirrored live ---------------------------------------

TEST(RmiMetricsTest, FailedCallsAndBreakerStateReachTheRegistry) {
  sim::Simulator sim{3};
  net::Topology topo{sim};
  const net::NodeId a = topo.add_node("a", net::NodeRole::kAppServer);
  const net::NodeId b = topo.add_node("b", net::NodeRole::kAppServer);
  // No link between a and b: every call fails immediately with NoRouteError.
  net::Network netw{sim, topo, sim::Duration::zero()};
  net::RmiTransport rmi{netw};
  net::ResilienceConfig res;
  res.enabled = true;
  res.max_retries = 1;
  res.breaker_failure_threshold = 2;
  rmi.set_resilience(res);

  stats::MetricsRegistry m;
  rmi.set_metrics(&m, "rmi.");
  EXPECT_EQ(m.counter("rmi.failed_calls"), 0u);  // synced at attach

  sim.spawn([](net::RmiTransport& rmi, net::NodeId a, net::NodeId b) -> sim::Task<void> {
    bool threw = false;
    try {
      co_await rmi.call(a, b, 100, []() -> sim::Task<net::Bytes> { co_return 100; });
    } catch (const net::NetError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(rmi, a, b));
  sim.run_until();

  EXPECT_EQ(m.counter("rmi.retries"), 1u);
  EXPECT_EQ(m.counter("rmi.failed_calls"), 1u);
  EXPECT_EQ(m.counter("rmi.breaker.opened"), 1u);  // threshold 2, 2 attempts
}

// --- end-to-end conformance ---------------------------------------------------

struct Traced {
  comp::TraceSink sink;
  sim::Duration elapsed = sim::Duration::zero();
};

Traced trace_page(core::Experiment& exp, const char* method, std::vector<db::Value> args,
                  bool warm_first) {
  workload::PageRequest req;
  req.page = method;
  req.pattern = "Test";
  req.component = "PetStoreWeb";
  req.method = method;
  req.args = std::move(args);

  const net::NodeId client = exp.nodes().remote_clients[0];
  if (warm_first) {
    exp.simulator().spawn([](core::Experiment& e, net::NodeId c,
                             const workload::PageRequest& r) -> sim::Task<void> {
      comp::TraceSink warm;
      co_await e.execute_traced(c, r, warm);
    }(exp, client, req));
    exp.simulator().run_until();
    exp.runtime().reset_cache_stats();
  }

  Traced out;
  exp.simulator().spawn([](core::Experiment& e, net::NodeId c, const workload::PageRequest& r,
                           Traced& out) -> sim::Task<void> {
    const SimTime t0 = e.simulator().now();
    co_await e.execute_traced(c, r, out.sink);
    out.elapsed = e.simulator().now() - t0;
  }(exp, client, req, out));
  exp.simulator().run_until();
  return out;
}

core::ExperimentSpec single_request_spec(core::ConfigLevel level) {
  core::ExperimentSpec spec;
  spec.level = level;
  spec.duration = sim::sec(1);
  spec.warmup = sim::Duration::zero();
  return spec;
}

TEST(TraceConformanceTest, CommitPageSumsExactlyAndShowsBothPushes) {
  apps::petstore::PetStoreApp app;
  core::Experiment exp{app.driver(),
                       single_request_spec(core::ConfigLevel::kStatefulComponentCaching),
                       core::petstore_calibration()};
  Traced t = trace_page(exp, "commitorder",
                        {db::Value{std::int64_t{1}}, db::Value{std::int64_t{1001001}}},
                        /*warm_first=*/true);

  EXPECT_GT(t.elapsed, sim::Duration::zero());
  EXPECT_EQ(t.sink.sum(), t.elapsed);  // exact equality, no tolerance
  EXPECT_EQ(t.sink.open_span_count(), 0u);
  EXPECT_GT(t.sink.trace_id(), 0u);

  // The blocking push must appear as an umbrella with one child per edge —
  // the testbed has two edge servers, pushed in sequence.
  std::size_t edge_pushes = 0;
  const stats::Span* umbrella = nullptr;
  for (const auto& s : t.sink.spans()) {
    if (s.kind != SpanKind::kPush) continue;
    if (s.label.rfind("push:", 0) == 0) {
      ++edge_pushes;
    } else {
      umbrella = &s;
    }
  }
  ASSERT_NE(umbrella, nullptr);
  EXPECT_EQ(edge_pushes, 2u);
  auto children = t.sink.children(umbrella->id);
  ASSERT_EQ(children.size(), 2u);
  // Sequential: the second push starts when the first ends.
  EXPECT_EQ(children[0]->end, children[1]->start);
  EXPECT_NE(children[0]->dst, children[1]->dst);
  // The umbrella's flat total equals its inclusive duration (its children
  // are tree-only decorations, not separately billed).
  EXPECT_EQ(t.sink.total(SpanKind::kPush), umbrella->duration());
}

TEST(TraceConformanceTest, EveryLevelConformsForItemPage) {
  for (core::ConfigLevel level :
       {core::ConfigLevel::kCentralized, core::ConfigLevel::kRemoteFacade,
        core::ConfigLevel::kStatefulComponentCaching, core::ConfigLevel::kQueryCaching,
        core::ConfigLevel::kAsyncUpdates}) {
    apps::petstore::PetStoreApp app;
    core::Experiment exp{app.driver(), single_request_spec(level),
                         core::petstore_calibration()};
    Traced t =
        trace_page(exp, "item", {db::Value{std::int64_t{1001001}}}, /*warm_first=*/true);
    EXPECT_EQ(t.sink.sum(), t.elapsed) << "level " << core::to_string(level);
    EXPECT_EQ(t.sink.open_span_count(), 0u) << "level " << core::to_string(level);
  }
}

TEST(TraceConformanceTest, RootSpanIsHttpAndTreeReachesTheMainServer) {
  apps::petstore::PetStoreApp app;
  core::Experiment exp{app.driver(), single_request_spec(core::ConfigLevel::kRemoteFacade),
                       core::petstore_calibration()};
  Traced t = trace_page(exp, "category", {db::Value{std::int64_t{1}}}, /*warm_first=*/true);

  auto roots = t.sink.children(0);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->kind, SpanKind::kHttpWire);
  // Under the façade rung the category page crosses edge -> main over RMI:
  // the http root must have an rmi-wire descendant targeting the main server.
  bool found_rmi = false;
  for (const stats::Span* child : t.sink.children(roots[0]->id)) {
    if (child->kind == SpanKind::kRmiWire &&
        child->dst == exp.nodes().main_server.value()) {
      found_rmi = true;
    }
  }
  EXPECT_TRUE(found_rmi);
}

// --- metrics collection is observation-only ----------------------------------

TEST(MetricsSamplingTest, EnableMetricsDoesNotPerturbTheRun) {
  apps::petstore::PetStoreApp app;
  core::ExperimentSpec spec;
  spec.level = core::ConfigLevel::kStatefulComponentCaching;
  spec.duration = sim::sec(150);
  spec.warmup = sim::sec(30);

  core::Experiment plain{app.driver(), spec, core::petstore_calibration()};
  plain.run();

  core::Experiment metered{app.driver(), spec, core::petstore_calibration()};
  metered.enable_metrics(sim::sec(10));
  metered.run();

  // Identical trajectories: every recorded response time matches.
  for (stats::ClientGroup g : {stats::ClientGroup::kLocal, stats::ClientGroup::kRemote}) {
    EXPECT_DOUBLE_EQ(plain.results().pattern_mean_ms("Browser", g),
                     metered.results().pattern_mean_ms("Browser", g));
    EXPECT_DOUBLE_EQ(plain.results().pattern_mean_ms("Buyer", g),
                     metered.results().pattern_mean_ms("Buyer", g));
  }

  // And the registries actually filled: response histogram, cache counters,
  // consistency gauges (zero staleness under blocking push).
  stats::MetricsRegistry& main = metered.metrics(metered.nodes().main_server);
  EXPECT_EQ(main.histogram("response_ms").count(), metered.results().total_samples());
  EXPECT_GT(main.counter("runtime.blocking_pushes"), 0u);
  EXPECT_EQ(main.counter("consistency.stale_reads"), 0u);
  bool edge_has_cache_metrics = false;
  for (net::NodeId edge : metered.nodes().edge_servers) {
    for (const auto& [name, v] : metered.metrics(edge).counters()) {
      if (name.rfind("rocache.", 0) == 0 && v > 0) edge_has_cache_metrics = true;
    }
  }
  EXPECT_TRUE(edge_has_cache_metrics);
}

}  // namespace
}  // namespace mutsvc
