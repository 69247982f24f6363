// Substrate microbenchmarks (google-benchmark): simulation kernel, caches,
// database engine, and placement algorithms.
#include <benchmark/benchmark.h>

#include "cache/query_cache.hpp"
#include "cache/read_only_cache.hpp"
#include "core/placement/algorithms.hpp"
#include "db/database.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mutsvc;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_after(sim::us(i % 1000), [&fired] { ++fired; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CoroutineSpawnAwait(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.spawn([](sim::Simulator& s) -> sim::Task<void> {
        co_await s.wait(sim::us(10));
        co_await s.wait(sim::us(10));
      }(sim));
    }
    sim.run_until();
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_CoroutineSpawnAwait)->Arg(1000)->Arg(10000);

void BM_FifoResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FifoResource cpu{sim, 2};
    for (int i = 0; i < 1000; ++i) {
      sim.spawn([](sim::FifoResource& r) -> sim::Task<void> {
        co_await r.consume(sim::us(50));
      }(cpu));
    }
    sim.run_until();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FifoResourceContention);

void BM_NetworkDeliverMultiHop(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo{sim};
  auto a = topo.add_node("a", net::NodeRole::kAppServer);
  auto h = topo.add_node("h", net::NodeRole::kRouter);
  auto b = topo.add_node("b", net::NodeRole::kAppServer);
  topo.add_link(a, h, sim::ms(50), 100e6);
  topo.add_link(h, b, sim::ms(50), 100e6);
  net::Network net{sim, topo};
  for (auto _ : state) {
    sim.spawn([](net::Network& n, net::NodeId a, net::NodeId b) -> sim::Task<void> {
      co_await n.deliver(a, b, 1024);
    }(net, a, b));
    sim.run_until();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkDeliverMultiHop);

void BM_TableIndexedFind(benchmark::State& state) {
  db::Table t{"item", {{"id", db::ColumnType::kInt}, {"g", db::ColumnType::kInt}}};
  for (std::int64_t i = 0; i < state.range(0); ++i) t.insert(db::Row{i, i % 100});
  t.create_index("g");
  std::int64_t g = 0;
  for (auto _ : state) {
    auto rows = t.find_equal("g", db::Value{g++ % 100});
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableIndexedFind)->Arg(1000)->Arg(10000);

void BM_QueryCacheHit(benchmark::State& state) {
  cache::QueryCache qc;
  qc.fill("k", {db::RowRef::make(db::Row{std::int64_t{1}, std::int64_t{2}})}, 1);
  for (auto _ : state) {
    auto entry = qc.get("k");
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCacheHit);

void BM_ReadOnlyCacheHit(benchmark::State& state) {
  cache::ReadOnlyCache c{"Item"};
  for (std::int64_t i = 0; i < 1000; ++i) c.fill(i, db::RowRef::make(db::Row{i, i}), 1);
  std::int64_t pk = 0;
  for (auto _ : state) {
    auto entry = c.get(pk++ % 1000);
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadOnlyCacheHit);

core::placement::PlacementProblem synthetic_problem(std::size_t components, std::uint64_t seed) {
  using namespace core::placement;
  sim::RngStream rng{seed};
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
  for (std::size_t i = 0; i < components; ++i) {
    VertexKind kind = i % 4 == 0   ? VertexKind::kWebComponent
                      : i % 4 == 1 ? VertexKind::kStatelessService
                      : i % 4 == 2 ? VertexKind::kSharedEntity
                                   : VertexKind::kQueryResults;
    Vertex v{"c" + std::to_string(i), kind};
    if (kind == VertexKind::kSharedEntity) v.write_rate = rng.uniform(0.0, 2.0);
    p.graph.add_vertex(std::move(v));
    if (i % 4 == 0) {
      p.graph.add_edge("__client_remote__", "c" + std::to_string(i), rng.uniform(1.0, 10.0),
                       2.0);
    } else {
      p.graph.add_edge("c" + std::to_string(i - 1), "c" + std::to_string(i),
                       rng.uniform(0.5, 8.0), 1.5);
    }
    if (i % 4 == 2) p.graph.add_edge("c" + std::to_string(i), "__database__", 2.0, 1.0);
  }
  return p;
}

void BM_PlacementCostEval(benchmark::State& state) {
  auto p = synthetic_problem(static_cast<std::size_t>(state.range(0)), 3);
  core::placement::CostModel model{p};
  core::placement::Assignment a(p.graph.vertex_count(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementCostEval)->Arg(16)->Arg(64)->Arg(256);

void BM_PlacementGreedy(benchmark::State& state) {
  auto p = synthetic_problem(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto r = core::placement::solve_greedy(p);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_PlacementGreedy)->Arg(16)->Arg(64)->Arg(128);

void BM_PlacementLocalSearch(benchmark::State& state) {
  auto p = synthetic_problem(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto r = core::placement::solve_local_search(p, sim::RngStream{9}, 4);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_PlacementLocalSearch)->Arg(16)->Arg(64);

void BM_PlacementAnnealing(benchmark::State& state) {
  auto p = synthetic_problem(static_cast<std::size_t>(state.range(0)), 3);
  core::placement::AnnealingParams params;
  params.iterations = 5000;
  for (auto _ : state) {
    auto r = core::placement::solve_annealing(p, sim::RngStream{9}, params);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_PlacementAnnealing)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
