#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/future.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace mutsvc::sim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::origin());
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(ms(30), [&] { order.push_back(3); });
  sim.schedule_after(ms(10), [&] { order.push_back(1); });
  sim.schedule_after(ms(20), [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(30));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(ms(10), [&] { ++fired; });
  sim.schedule_after(ms(50), [&] { ++fired; });
  sim.run_until(SimTime::origin() + ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(20));
  sim.run_until();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventInPastClampsToNow) {
  Simulator sim;
  sim.schedule_after(ms(10), [&] {
    // From inside an event at t=10, scheduling "at t=0" must fire at t=10.
    sim.schedule_at(SimTime::origin(), [] {});
  });
  sim.run_until();
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(10));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, HandlerCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(ms(1), chain);
  };
  sim.schedule_after(ms(1), chain);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(5));
}

// --- lookahead domains: the (time, owner domain, per-owner seq) order -------

TEST(DomainOrderTest, SameTimeEventsFireByOwnerDomainThenOwnerSequence) {
  Simulator sim;
  sim.enable_domains(3);
  std::vector<std::string> order;
  auto at = [&](Simulator::DomainId d, const char* tag, Duration t) {
    Simulator::DomainScope scope(sim, d);
    sim.schedule_at(SimTime::origin() + t, [&order, tag] { order.push_back(tag); });
  };
  // Insertion order interleaves the owners; same-time events must still run
  // owner by owner, each owner's events in the order it created them.
  at(2, "d2-first", ms(10));
  at(0, "d0-first", ms(10));
  at(1, "d1-first", ms(10));
  at(2, "d2-second", ms(10));
  at(0, "d0-second", ms(10));
  at(2, "d2-early", ms(5));  // time still dominates the owner
  sim.run_until();
  EXPECT_EQ(order, (std::vector<std::string>{"d2-early", "d0-first", "d0-second", "d1-first",
                                             "d2-first", "d2-second"}));
}

[[nodiscard]] Task<void> hop_then_schedule(Simulator& sim, std::vector<std::string>& order,
                                           std::vector<int>& domains) {
  co_await sim.wait_in(1, ms(5));  // sent from domain 0, lands in domain 1
  domains.push_back(sim.current_domain());
  sim.schedule_at(SimTime::origin() + ms(20), [&sim, &order, &domains] {
    order.push_back("from-hop");
    domains.push_back(sim.current_domain());
  });
}

TEST(DomainOrderTest, WaitInContinuationRunsAsDestinationAndOwnsWhatItSchedules) {
  Simulator sim;
  sim.enable_domains(2);
  std::vector<std::string> order;
  std::vector<int> domains;
  {
    Simulator::DomainScope scope(sim, 0);
    sim.spawn(hop_then_schedule(sim, order, domains));
    // A domain-0 event at t=10 schedules a t=20 event *after* the hop's
    // t=20 event was created (t=5). Global FIFO would run the hop's first;
    // the tagged order runs owner 0 before owner 1.
    sim.schedule_at(SimTime::origin() + ms(10), [&sim, &order, &domains] {
      sim.schedule_at(SimTime::origin() + ms(20), [&sim, &order, &domains] {
        order.push_back("from-domain-0");
        domains.push_back(sim.current_domain());
      });
    });
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<std::string>{"from-domain-0", "from-hop"}));
  // Continuation after the hop, then the two t=20 events in firing order.
  EXPECT_EQ(domains, (std::vector<int>{1, 0, 1}));
  // Outside event execution the caller's domain is restored.
  EXPECT_EQ(sim.current_domain(), 0);
}

TEST(DomainOrderTest, MisuseIsRefused) {
  Simulator sim;
  sim.enable_domains(2);
  EXPECT_THROW(Simulator::DomainScope(sim, 2), std::out_of_range);
  EXPECT_THROW(sim.enable_domains(2), std::logic_error);  // already enabled

  Simulator scheduled;
  scheduled.schedule_after(ms(1), [] {});
  EXPECT_THROW(scheduled.enable_domains(2), std::logic_error);

  Simulator ran;
  ran.schedule_after(ms(1), [] {});
  ran.run_until();
  ASSERT_TRUE(ran.idle());
  EXPECT_THROW(ran.enable_domains(2), std::logic_error);

  Simulator zero;
  EXPECT_THROW(zero.enable_domains(0), std::invalid_argument);
}

[[nodiscard]] Task<void> hop_to(Simulator& sim, Simulator::DomainId dest,
                                std::vector<std::string>& order, const char* tag) {
  co_await sim.wait_in(dest, ms(5));
  order.push_back(tag);
}

TEST(DomainOrderTest, BareSimulatorKeepsGlobalFifoOrder) {
  // Without enable_domains, DomainScope and wait_in change nothing: same-time
  // events fire in plain insertion order whatever scope created them.
  Simulator sim;
  std::vector<std::string> order;
  {
    Simulator::DomainScope scope(sim, 7);
    sim.schedule_after(ms(5), [&order] { order.push_back("scope-7"); });
  }
  sim.spawn(hop_to(sim, 3, order, "hop-to-3"));
  {
    Simulator::DomainScope scope(sim, 1);
    sim.schedule_after(ms(5), [&order] { order.push_back("scope-1"); });
  }
  sim.schedule_after(ms(5), [&order] { order.push_back("unscoped"); });
  sim.run_until();
  EXPECT_EQ(order,
            (std::vector<std::string>{"scope-7", "hop-to-3", "scope-1", "unscoped"}));
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(5));
}

// --- coroutines ------------------------------------------------------------

[[nodiscard]] Task<void> wait_twice(Simulator& sim, std::vector<double>& log) {
  co_await sim.wait(ms(10));
  log.push_back(sim.now().as_millis());
  co_await sim.wait(ms(15));
  log.push_back(sim.now().as_millis());
}

TEST(CoroutineTest, SpawnedTaskAdvancesThroughWaits) {
  Simulator sim;
  std::vector<double> log;
  sim.spawn(wait_twice(sim, log));
  sim.run_until();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 10.0);
  EXPECT_DOUBLE_EQ(log[1], 25.0);
}

[[nodiscard]] Task<int> returns_value(Simulator& sim) {
  co_await sim.wait(ms(1));
  co_return 42;
}

[[nodiscard]] Task<void> awaits_child(Simulator& sim, int& out) {
  out = co_await returns_value(sim);
}

TEST(CoroutineTest, ChildTaskReturnValue) {
  Simulator sim;
  int out = 0;
  sim.spawn(awaits_child(sim, out));
  sim.run_until();
  EXPECT_EQ(out, 42);
}

[[nodiscard]] Task<int> deep(Simulator& sim, int depth) {
  if (depth == 0) co_return 1;
  co_await sim.wait(us(1));
  int sub = co_await deep(sim, depth - 1);
  co_return sub + 1;
}

TEST(CoroutineTest, DeeplyNestedTasks) {
  Simulator sim;
  int out = 0;
  sim.spawn([](Simulator& s, int& o) -> Task<void> { o = co_await deep(s, 100); }(sim, out));
  sim.run_until();
  EXPECT_EQ(out, 101);
  EXPECT_EQ(sim.now(), SimTime::origin() + us(100));
}

[[nodiscard]] Task<void> throws_after_wait(Simulator& sim) {
  co_await sim.wait(ms(1));
  throw std::runtime_error("boom");
}

[[nodiscard]] Task<void> catches_child(Simulator& sim, std::string& msg) {
  try {
    co_await throws_after_wait(sim);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
}

TEST(CoroutineTest, ExceptionsPropagateToAwaiter) {
  Simulator sim;
  std::string msg;
  sim.spawn(catches_child(sim, msg));
  sim.run_until();
  EXPECT_EQ(msg, "boom");
}

TEST(CoroutineTest, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> completions;
  for (int i = 0; i < 50; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& out, int id) -> Task<void> {
      // Task id waits id+1 ms, so completion order equals id order.
      co_await s.wait(ms(id + 1));
      out.push_back(id);
    }(sim, completions, i));
  }
  sim.run_until();
  ASSERT_EQ(completions.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(completions[static_cast<std::size_t>(i)], i);
}

// --- futures ---------------------------------------------------------------

TEST(FutureTest, AwaitAlreadyResolved) {
  Simulator sim;
  Promise<int> p{sim};
  p.set_value(7);
  int out = 0;
  sim.spawn([](Promise<int> p, int& o) -> Task<void> { o = co_await p.future(); }(p, out));
  sim.run_until();
  EXPECT_EQ(out, 7);
}

TEST(FutureTest, MultipleWaitersAllWake) {
  Simulator sim;
  Promise<int> p{sim};
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Promise<int> p, std::vector<int>& g) -> Task<void> {
      g.push_back(co_await p.future());
    }(p, got));
  }
  sim.schedule_after(ms(5), [&] { p.set_value(9); });
  sim.run_until();
  EXPECT_EQ(got, (std::vector<int>{9, 9, 9}));
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(5));
}

TEST(FutureTest, DoubleFulfilThrows) {
  Simulator sim;
  Promise<int> p{sim};
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), std::logic_error);
}

TEST(FutureTest, ExceptionDelivery) {
  Simulator sim;
  Promise<int> p{sim};
  std::string msg;
  sim.spawn([](Promise<int> p, std::string& m) -> Task<void> {
    try {
      (void)co_await p.future();
    } catch (const std::runtime_error& e) {
      m = e.what();
    }
  }(p, msg));
  sim.schedule_after(ms(1), [&] {
    p.set_exception(std::make_exception_ptr(std::runtime_error("bad")));
  });
  sim.run_until();
  EXPECT_EQ(msg, "bad");
}

// --- resources ---------------------------------------------------------------

TEST(FifoResourceTest, SingleServerSerializes) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, FifoResource& r, std::vector<double>& d) -> Task<void> {
      co_await r.consume(ms(10));
      d.push_back(s.now().as_millis());
    }(sim, cpu, done));
  }
  sim.run_until();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 20.0);
  EXPECT_DOUBLE_EQ(done[2], 30.0);
}

TEST(FifoResourceTest, TwoServersRunInParallel) {
  Simulator sim;
  FifoResource cpu{sim, 2};
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, FifoResource& r, std::vector<double>& d) -> Task<void> {
      co_await r.consume(ms(10));
      d.push_back(s.now().as_millis());
    }(sim, cpu, done));
  }
  sim.run_until();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_DOUBLE_EQ(done[2], 20.0);
  EXPECT_DOUBLE_EQ(done[3], 20.0);
}

TEST(FifoResourceTest, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  EXPECT_THROW(cpu.release(), std::logic_error);
}

TEST(FifoResourceTest, ZeroServersRejected) {
  Simulator sim;
  EXPECT_THROW(FifoResource(sim, 0), std::invalid_argument);
}

TEST(FifoResourceTest, UtilizationTracksBusyFraction) {
  Simulator sim;
  FifoResource cpu{sim, 2};
  sim.spawn([](FifoResource& r) -> Task<void> { co_await r.consume(ms(50)); }(cpu));
  sim.run_for(ms(100));
  // One of two servers busy for 50 of 100 ms -> 25% mean utilization.
  EXPECT_NEAR(cpu.utilization(), 0.25, 0.01);
}

TEST(FifoResourceTest, UtilizationResetsWindow) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  sim.spawn([](FifoResource& r) -> Task<void> { co_await r.consume(ms(50)); }(cpu));
  sim.run_for(ms(50));
  cpu.reset_utilization();
  sim.run_for(ms(50));
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-9);
}

// The hand-off contract: a queued consumer gets its slot through a zero-delay
// event at the release, and that event schedules its hold. So a consume that
// queued completes after same-time events scheduled before its hand-off (X
// before B, Y before D), `acquire()` and `consume()` holders share one FIFO,
// and the events are exactly those of acquire + wait(d) + release.
using Log = std::vector<std::string>;

void note(Log& log, Simulator& s, const std::string& what) {
  log.push_back(what + "@" + std::to_string(s.now().count_micros() / 1000));
}

[[nodiscard]] Task<void> consumer(Simulator& s, FifoResource& r, Log& log, std::string name,
                                  Duration d) {
  co_await r.consume(d);
  note(log, s, name);
}

[[nodiscard]] Task<void> acquirer(Simulator& s, FifoResource& r, Log& log, std::string name,
                                  Duration d) {
  co_await r.acquire();
  note(log, s, name + "-in");
  co_await s.wait(d);
  note(log, s, name + "-out");
  r.release();
}

TEST(FifoResourceTest, QueuedConsumeStartsItsHoldAtTheHandOff) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  Log log;
  sim.spawn(consumer(sim, cpu, log, "A", ms(10)));
  sim.spawn(consumer(sim, cpu, log, "B", ms(10)));
  sim.spawn(acquirer(sim, cpu, log, "C", ms(5)));
  sim.spawn(consumer(sim, cpu, log, "D", ms(10)));
  sim.schedule_at(SimTime::origin() + ms(20), [&] { note(log, sim, "X"); });
  sim.schedule_at(SimTime::origin() + ms(35), [&] { note(log, sim, "Y"); });
  sim.run_until();
  EXPECT_EQ(log, (Log{"A@10", "X@20", "B@20", "C-in@20", "C-out@25", "Y@35", "D@35"}));
  EXPECT_EQ(sim.executed_events(), 9u);
  EXPECT_EQ(cpu.utilization(), 1.0);
  EXPECT_EQ(cpu.busy(), 0u);
}

TEST(FifoResourceTest, TwoServerHandOffsKeepArrivalOrder) {
  Simulator sim;
  FifoResource cpu{sim, 2};
  Log log;
  sim.spawn(consumer(sim, cpu, log, "A", ms(10)));
  sim.spawn(consumer(sim, cpu, log, "B", ms(20)));
  sim.spawn(consumer(sim, cpu, log, "C", ms(10)));
  sim.spawn(acquirer(sim, cpu, log, "D", ms(5)));
  sim.spawn(consumer(sim, cpu, log, "E", ms(10)));
  sim.schedule_at(SimTime::origin() + ms(10), [&] { note(log, sim, "X"); });
  sim.schedule_at(SimTime::origin() + ms(20), [&] { note(log, sim, "Y"); });
  sim.run_until();
  EXPECT_EQ(log, (Log{"A@10", "X@10", "B@20", "Y@20", "C@20", "D-in@20", "D-out@25", "E@30"}));
  EXPECT_EQ(sim.executed_events(), 10u);
  // Both servers busy for 25 ms, one for the last 5 ms of 30.
  EXPECT_DOUBLE_EQ(cpu.utilization(), 55.0 / 60.0);
  EXPECT_EQ(cpu.busy(), 0u);
}

TEST(FifoResourceTest, WaiterOrderHoldsWhileTheQueueNeverDrains) {
  // 100 consumers queue at once behind one server: the queue stays
  // non-empty until the last one, so the waiter buffer drops its served
  // prefix mid-queue instead of resetting on a drain.
  Simulator sim;
  FifoResource cpu{sim, 1};
  Log log;
  Log expected;
  for (int i = 0; i < 100; ++i) {
    sim.spawn(consumer(sim, cpu, log, std::to_string(i), ms(1)));
    expected.push_back(std::to_string(i) + "@" + std::to_string(i + 1));
  }
  EXPECT_EQ(cpu.queue_length(), 99u);
  sim.run_until();
  EXPECT_EQ(log, expected);
  EXPECT_EQ(cpu.queue_length(), 0u);
  EXPECT_EQ(cpu.busy(), 0u);
}

TEST(SimMutexTest, MutualExclusionFifo) {
  Simulator sim;
  SimMutex m{sim};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, SimMutex& m, std::vector<int>& o, int id) -> Task<void> {
      co_await m.acquire();
      o.push_back(id);
      co_await s.wait(ms(5));
      m.release();
    }(sim, m, order, i));
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(15));
}

}  // namespace
}  // namespace mutsvc::sim
