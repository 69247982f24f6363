// Overload-protection unit battery: the deterministic GCRA token bucket
// behind admission control, and the FIFO park gate (CreditGate) that
// migration uses to quiesce a component's calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/flowcontrol.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mutsvc {
namespace {

using net::CreditGate;
using net::TokenBucket;
using sim::ms;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

SimTime at_ms(double m) { return SimTime::origin() + ms(m); }

// --- TokenBucket (admission) -------------------------------------------------

TEST(TokenBucketTest, BurstPassesThenSustainedRateHolds) {
  // 10/s with burst 3: three back-to-back arrivals pass at t=0, the fourth
  // is rejected, and one more slot opens every 100ms.
  TokenBucket b{10.0, 3.0};
  EXPECT_TRUE(b.try_acquire(at_ms(0)));
  EXPECT_TRUE(b.try_acquire(at_ms(0)));
  EXPECT_TRUE(b.try_acquire(at_ms(0)));
  EXPECT_FALSE(b.try_acquire(at_ms(0)));
  EXPECT_FALSE(b.try_acquire(at_ms(99)));
  EXPECT_TRUE(b.try_acquire(at_ms(100)));
  EXPECT_FALSE(b.try_acquire(at_ms(100)));
  EXPECT_EQ(b.admitted(), 4u);
  EXPECT_EQ(b.rejected(), 3u);
}

TEST(TokenBucketTest, SteadyOfferAdmitsExactlyTheRate) {
  // Offer 50/s against a 10/s bucket for 10 simulated seconds: exactly
  // rate * time + burst admissions, deterministically.
  TokenBucket b{10.0, 1.0};
  std::uint64_t admitted = 0;
  for (int i = 0; i < 500; ++i) {
    if (b.try_acquire(at_ms(20.0 * i))) ++admitted;
  }
  EXPECT_EQ(admitted, 100u);
  EXPECT_EQ(b.admitted() + b.rejected(), 500u);
}

TEST(TokenBucketTest, IdlePeriodRestoresBurst) {
  TokenBucket b{10.0, 5.0};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_acquire(at_ms(0)));
  EXPECT_FALSE(b.try_acquire(at_ms(0)));
  // After a long idle period the full burst allowance is back.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_acquire(at_ms(10000)));
  EXPECT_FALSE(b.try_acquire(at_ms(10000)));
}

TEST(TokenBucketTest, RejectsInvalidParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TokenBucket(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(10.0, 0.5), std::invalid_argument);
  EXPECT_THROW(TokenBucket(10.0, nan), std::invalid_argument);
  EXPECT_THROW(TokenBucket(10.0, inf), std::invalid_argument);
  // Finite parameters whose microsecond increment or tolerance would
  // overflow int64: 1e-13/s spaces admissions 1e19 us apart; burst 1e15 at
  // 10/s tolerates 1e20 us; at 1e12/s the increment clamps to 1 us, so a
  // burst of 1e24 tolerates 1e24 us.
  EXPECT_THROW(TokenBucket(1e-13, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(10.0, 1e15), std::invalid_argument);
  EXPECT_THROW(TokenBucket(1e12, 1e24), std::invalid_argument);
  // A window just under 2^62 us (burst 4e12 at 1/s) still fits, and admits
  // every arrival of a fast train.
  TokenBucket wide{1.0, 4e12};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(wide.try_acquire(at_ms(i)));
}

// --- CreditGate --------------------------------------------------------------

TEST(CreditGateTest, OpenGateWaitsCompleteSynchronously) {
  Simulator sim{1};
  CreditGate gate{sim};
  bool done = false;
  sim.spawn([](CreditGate& g, bool& done) -> Task<void> {
    co_await g.wait();
    done = true;
  }(gate, done));
  // Lazy task + synchronous completion: nothing was ever scheduled.
  EXPECT_TRUE(done);
  sim.run_until();
  EXPECT_EQ(sim.now(), SimTime::origin());
}

TEST(CreditGateTest, ClosedGateParksUntilReopenedInFifoOrder) {
  Simulator sim{1};
  CreditGate gate{sim};
  gate.close_gate();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](CreditGate& g, std::vector<int>& order, int id) -> Task<void> {
      co_await g.wait();
      order.push_back(id);
    }(gate, order, i));
  }
  EXPECT_EQ(gate.waiting(), 3u);
  sim.run_until();
  EXPECT_TRUE(order.empty());  // still parked: nothing reopened the gate
  gate.open_gate();
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CreditGateTest, ResumedWaiterRechecksAReClosedGate) {
  Simulator sim{1};
  CreditGate gate{sim};
  gate.close_gate();
  int completions = 0;
  // The first resumed caller closes the gate again before the second one
  // resumes, so the second re-checks the gate and parks again.
  sim.spawn([](CreditGate& g, int& done) -> Task<void> {
    co_await g.wait();
    g.close_gate();
    ++done;
  }(gate, completions));
  sim.spawn([](CreditGate& g, int& done) -> Task<void> {
    co_await g.wait();
    ++done;
  }(gate, completions));
  gate.open_gate();
  sim.run_until();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(gate.waiting(), 1u);
  gate.open_gate();
  sim.run_until();
  EXPECT_EQ(completions, 2);
}

}  // namespace
}  // namespace mutsvc
