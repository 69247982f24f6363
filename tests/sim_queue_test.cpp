// The event queue's pop order (sim/simulator.hpp). One seeded differential
// test drives a 4-domain Simulator and a bare one through thousands of
// events and checks every pop against a reference that orders the pending
// set by (time, owner, seq), with each key predicted the way the kernel
// assigns it. Every golden and benchmark digest is recorded in that order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mutsvc::sim {
namespace {

/// What a handler schedules; each kind is counted so the test proves it
/// exercised all of them.
enum Kind : std::size_t {
  kZeroDelay,
  kNear,        // under 512 µs ahead: the common case
  kMid,         // up to 0.2 s ahead
  kFarFuture,   // bit 40 and above
  kClampedPast,
  kLowerOwner,  // same time, created under a lower domain
  kHop,         // wait_in, sometimes with zero delay to a lower domain
  kAtMax,       // SimTime::max()
  kBetweenRuns, // after run_until stops, before the pending minimum
  kKinds
};

class QueueDriver {
 public:
  static constexpr std::size_t kLive = 400;

  QueueDriver(std::uint32_t domains, std::uint64_t seed) : domains_(domains), rng_(seed) {
    if (domains_ > 0) sim_.enable_domains(domains_);
  }

  /// Runs the scenario to completion and checks it.
  void run(std::size_t budget) {
    budget_ = budget;
    for (Simulator::DomainId d = 0; d < std::max<std::uint32_t>(domains_, 1); ++d) {
      Simulator::DomainScope scope(sim_, d);
      for (int i = 0; i < 4; ++i) schedule(kNear, sim_.now() + us(rng_.uniform_int(0, 400)));
    }
    // Phases that stop between events, then schedule before the pending
    // minimum: the queue must not have moved past the stop time.
    for (int phase = 0; phase < 4000 && created_ < budget_ && !sim_.idle(); ++phase) {
      sim_.run_until(sim_.now() + us(rng_.uniform_int(1, 5'000)));
      check_counts();
      if (pending_.empty()) break;
      const std::int64_t now = sim_.now().count_micros();
      const std::int64_t before_min = pending_.begin()->at - 1;
      ASSERT_GE(before_min, now) << "run_until left a due event pending";
      const auto owner =
          static_cast<Simulator::DomainId>(rng_.uniform_int(0, std::max<std::int64_t>(domains_, 1) - 1));
      Simulator::DomainScope scope(sim_, owner);
      schedule(kBetweenRuns,
               SimTime::from_micros(std::min(now + rng_.uniform_int(0, 1000), before_min)));
    }
    sim_.run_until();

    EXPECT_EQ(fired_, expected_) << "pop order differs from (time, owner, seq)";
    EXPECT_EQ(fired_.size(), created_);
    EXPECT_GE(created_, budget_);
    EXPECT_TRUE(sim_.idle());
    EXPECT_EQ(sim_.now(), SimTime::max());
    EXPECT_EQ(count_mismatches_, 0u) << "pending_events()/idle() disagree with the reference";
    EXPECT_EQ(domain_mismatches_, 0u) << "a wait_in continuation ran outside its destination";
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (k == kLowerOwner && domains_ == 0) continue;  // a bare kernel has one owner
      EXPECT_GT(kinds_[k], 0u) << "kind " << k;
    }
  }

 private:
  struct Entry {
    std::int64_t at;
    std::uint32_t owner;
    std::uint64_t seq;
    std::size_t id;
    auto operator<=>(const Entry&) const = default;
  };

  /// Enters the key the kernel gives an event created now for `at`.
  std::size_t expect(Kind kind, SimTime at) {
    if (at < sim_.now()) at = sim_.now();
    const std::uint32_t owner = domains_ > 0 ? sim_.current_domain() : 0;
    const Entry entry{at.count_micros(), owner, next_seq_[owner]++, entries_.size()};
    entries_.push_back(entry);
    pending_.insert(entry);
    ++created_;
    ++kinds_[kind];
    parked_.push_back(kind == kFarFuture || kind == kAtMax);
    if (!parked_.back()) ++live_;
    return entry.id;
  }

  void schedule(Kind kind, SimTime at) {
    const std::size_t id = expect(kind, at);
    sim_.schedule_at(at, [this, id] { fire(id); });
  }

  [[nodiscard]] Task<void> hop(Simulator::DomainId dest, Duration d) {
    const std::size_t id = expect(kHop, sim_.now() + d);  // keyed by the sender
    co_await sim_.wait_in(dest, d);
    if (domains_ > 0 && sim_.current_domain() != dest) ++domain_mismatches_;
    fire(id);
  }

  void fire(std::size_t id) {
    expected_.push_back(pending_.empty() ? entries_.size() : pending_.begin()->id);
    fired_.push_back(id);
    pending_.erase(entries_[id]);
    if (!parked_[id]) --live_;
    check_counts();
    if (sim_.now() == SimTime::max()) return;  // nothing fits after the end of time
    // Hold about kLive events in play, as many as a ladder run keeps
    // pending, so the budget lasts for many run_until phases.
    const std::int64_t children = live_ < kLive ? 2 : rng_.uniform_int(0, 1);
    for (std::int64_t n = children; n > 0 && created_ < budget_; --n) act();
  }

  void act() {
    const SimTime now = sim_.now();
    switch (rng_.uniform_int(0, 19)) {
      case 0:
      case 1:
        schedule(kZeroDelay, now);
        break;
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
        schedule(kNear, now + us(rng_.uniform_int(1, 511)));
        break;
      case 7:
      case 8:
      case 9:
        schedule(kMid, now + us(rng_.uniform_int(512, 200'000)));
        break;
      case 10: {
        const std::int64_t bit = std::int64_t{1} << rng_.uniform_int(40, 46);
        schedule(kFarFuture, now + us(bit + rng_.uniform_int(0, bit)));
        break;
      }
      case 11:
        schedule(kClampedPast, now - us(rng_.uniform_int(1, 1000)));
        break;
      case 12:
      case 13:
        if (sim_.current_domain() > 0) {
          Simulator::DomainScope scope(
              sim_, static_cast<Simulator::DomainId>(
                        rng_.uniform_int(0, sim_.current_domain() - 1)));
          schedule(kLowerOwner, now);
        } else {
          schedule(kZeroDelay, now);
        }
        break;
      case 14:
      case 15:
      case 16:
      case 17: {
        const auto dest = static_cast<Simulator::DomainId>(
            rng_.uniform_int(0, std::max<std::int64_t>(domains_, 1) - 1));
        const Duration d = rng_.bernoulli(0.5) ? Duration::zero() : us(rng_.uniform_int(1, 800));
        sim_.spawn(hop(dest, d));
        break;
      }
      case 18:
        if (kinds_[kAtMax] < 3) {
          schedule(kAtMax, SimTime::max());
          break;
        }
        [[fallthrough]];
      default:
        schedule(kNear, now + us(rng_.uniform_int(1, 511)));
        break;
    }
  }

  void check_counts() {
    if (sim_.pending_events() != pending_.size() || sim_.idle() != pending_.empty()) {
      ++count_mismatches_;
    }
  }

  Simulator sim_{42};
  std::uint32_t domains_;
  RngStream rng_;
  std::size_t budget_ = 0;
  std::size_t created_ = 0;
  std::array<std::uint64_t, 256> next_seq_{};
  std::vector<Entry> entries_;  // by id
  std::vector<bool> parked_;    // by id: far future or at SimTime::max()
  std::size_t live_ = 0;        // pending events that are not parked
  std::set<Entry> pending_;     // the reference queue
  std::vector<std::size_t> expected_;
  std::vector<std::size_t> fired_;
  std::array<std::size_t, kKinds> kinds_{};
  std::size_t count_mismatches_ = 0;
  std::size_t domain_mismatches_ = 0;
};

TEST(EventQueueTest, PopOrderMatchesTimeOwnerSeqReference) {
  for (const std::uint32_t domains : {4U, 0U}) {
    SCOPED_TRACE(domains > 0 ? "4-domain simulator" : "bare simulator");
    QueueDriver driver(domains, 2003);
    driver.run(20'000);
  }
}

}  // namespace
}  // namespace mutsvc::sim
