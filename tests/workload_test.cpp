#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sim/simulator.hpp"
#include "workload/loadgen.hpp"
#include "workload/session.hpp"

namespace mutsvc::workload {
namespace {

using sim::Duration;
using sim::ms;
using sim::sec;
using sim::Simulator;
using sim::Task;

/// Fixed-latency executor that records request arrival times and pages.
class FakeExecutor final : public RequestExecutor {
 public:
  FakeExecutor(Simulator& sim, Duration latency) : sim_(sim), latency_(latency) {}

  [[nodiscard]] Task<RequestOutcome> execute(net::NodeId, const PageRequest& req) override {
    ++requests_;
    pages_[req.page]++;
    patterns_[req.pattern]++;
    co_await sim_.wait(latency_);
    co_return RequestOutcome::kOk;
  }

  std::uint64_t requests_ = 0;
  std::map<std::string, int> pages_;
  std::map<std::string, int> patterns_;

 private:
  Simulator& sim_;
  Duration latency_;
};

/// Three-page fixed session.
class FixedSession final : public SessionScript {
 public:
  explicit FixedSession(const char* pattern) : pattern_(pattern) {}
  std::optional<PageRequest> next() override {
    if (step_ >= 3) return std::nullopt;
    PageRequest req;
    req.page = "P" + std::to_string(step_++);
    req.pattern = pattern_;
    req.component = "Web";
    req.method = "page";
    return req;
  }
  const char* pattern() const override { return pattern_; }

 private:
  const char* pattern_;
  int step_ = 0;
};

SessionFactory fixed_factory(const char* pattern) {
  return [pattern] { return std::make_unique<FixedSession>(pattern); };
}

struct LoadWorld {
  Simulator sim{5};
  stats::ResponseTimeCollector collector;

  ClientGroupSpec spec(double rate, double browser_fraction) {
    ClientGroupSpec s;
    s.client_node = net::NodeId{0};
    s.group = stats::ClientGroup::kLocal;
    s.requests_per_second = rate;
    s.browser_fraction = browser_fraction;
    s.browser_factory = fixed_factory("Browser");
    s.writer_factory = fixed_factory("Writer");
    return s;
  }
};

TEST(LoadGeneratorTest, OfferedRateMatchesSpec) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(20)};
  LoadGenConfig cfg;
  cfg.think_time = sec(5);
  cfg.between_sessions = Duration::zero();
  LoadGenerator gen{w.sim, exec, w.collector, cfg};
  const double duration_s = 300.0;
  gen.start_group(w.spec(10.0, 0.8), sim::SimTime::origin() + sec(duration_s),
                  w.sim.rng().fork("g"));
  w.sim.run_until();
  const double achieved = static_cast<double>(exec.requests_) / duration_s;
  EXPECT_NEAR(achieved, 10.0, 1.0);
}

TEST(LoadGeneratorTest, BrowserWriterMixRespected) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  LoadGenConfig cfg;
  cfg.think_time = sec(5);
  LoadGenerator gen{w.sim, exec, w.collector, cfg};
  gen.start_group(w.spec(20.0, 0.8), sim::SimTime::origin() + sec(200), w.sim.rng().fork("g"));
  w.sim.run_until();
  const double total = exec.patterns_["Browser"] + exec.patterns_["Writer"];
  EXPECT_NEAR(exec.patterns_["Browser"] / total, 0.8, 0.05);
}

TEST(LoadGeneratorTest, SoftDelayKeepsRateUnderSlowResponses) {
  // §3.3: "effectively DELAY becomes the time interval between sending
  // requests, which allowed us to simulate steady client load independent
  // of response times". A 2s response with a 5s DELAY must not reduce the
  // offered rate.
  LoadWorld w;
  FakeExecutor slow{w.sim, sec(2)};
  LoadGenConfig cfg;
  cfg.think_time = sec(5);
  cfg.between_sessions = Duration::zero();
  LoadGenerator gen{w.sim, slow, w.collector, cfg};
  gen.start_group(w.spec(10.0, 1.0), sim::SimTime::origin() + sec(300), w.sim.rng().fork("g"));
  w.sim.run_until();
  EXPECT_NEAR(static_cast<double>(slow.requests_) / 300.0, 10.0, 1.2);
}

TEST(LoadGeneratorTest, ResponsesRecordedWithPatternAndGroup) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(30)};
  LoadGenerator gen{w.sim, exec, w.collector, {}};
  gen.start_group(w.spec(5.0, 1.0), sim::SimTime::origin() + sec(60), w.sim.rng().fork("g"));
  w.sim.run_until();
  EXPECT_GT(w.collector.total_samples(), 0u);
  EXPECT_NEAR(w.collector.page_mean_ms("Browser", "P0", stats::ClientGroup::kLocal), 30.0, 0.5);
  EXPECT_NEAR(w.collector.pattern_mean_ms("Browser", stats::ClientGroup::kLocal), 30.0, 0.5);
}

TEST(LoadGeneratorTest, ClientsStopAtEndTime) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  LoadGenerator gen{w.sim, exec, w.collector, {}};
  gen.start_group(w.spec(10.0, 0.8), sim::SimTime::origin() + sec(30), w.sim.rng().fork("g"));
  w.sim.run_until();
  // All clients eventually stop: simulation drains with no runaway events.
  EXPECT_TRUE(w.sim.idle());
  EXPECT_LT(w.sim.now().as_seconds(), 60.0);
}

TEST(LoadGeneratorTest, SessionsRestartAfterCompletion) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  LoadGenConfig cfg;
  cfg.think_time = sec(2);
  cfg.between_sessions = sec(1);
  LoadGenerator gen{w.sim, exec, w.collector, cfg};
  gen.start_group(w.spec(2.0, 1.0), sim::SimTime::origin() + sec(120), w.sim.rng().fork("g"));
  w.sim.run_until();
  // 4 clients x (~1 session per 7s) over 120s => tens of sessions.
  EXPECT_GT(gen.sessions_started(), 30u);
  EXPECT_EQ(gen.requests_issued(), exec.requests_);
}

/// Property sweep: the offered rate tracks the spec across a range of
/// rates and think times (parameterized, §3.3 soft-delay invariant).
class LoadRateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LoadRateSweep, AchievedRateTracksSpec) {
  const auto [rate, think_s] = GetParam();
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(25)};
  LoadGenConfig cfg;
  cfg.think_time = sim::Duration::seconds(think_s);
  cfg.between_sessions = Duration::zero();
  LoadGenerator gen{w.sim, exec, w.collector, cfg};
  gen.start_group(w.spec(rate, 0.8), sim::SimTime::origin() + sec(400), w.sim.rng().fork("g"));
  w.sim.run_until();
  const double achieved = static_cast<double>(exec.requests_) / 400.0;
  EXPECT_NEAR(achieved, rate, rate * 0.15 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Rates, LoadRateSweep,
                         ::testing::Values(std::make_tuple(2.0, 4.0),
                                           std::make_tuple(5.0, 7.0),
                                           std::make_tuple(10.0, 7.0),
                                           std::make_tuple(20.0, 5.0),
                                           std::make_tuple(30.0, 10.0)));

// --- Regression: client-split rounding (ISSUE 9 bugfix 1) --------------------
// start_group used to round browsers and writers independently, which could
// drop or invent a client (round(r*f*T) + round(r*(1-f)*T) != round(r*T))
// and left low-rate groups with zero clients.

TEST(ClientSplitTest, TotalIsConservedAcrossRatesAndMixes) {
  const double rates[] = {0.05, 0.3, 1.5, 2.9, 6.0, 10.0, 30.0, 80.0};
  const double fractions[] = {0.0, 0.2, 0.5, 0.8, 0.95, 1.0};
  const double thinks[] = {4.0, 5.0, 7.0, 10.0};
  for (double rate : rates) {
    for (double f : fractions) {
      for (double think_s : thinks) {
        const auto split =
            LoadGenerator::split_clients(rate, f, Duration::seconds(think_s));
        const long rounded = std::lround(rate * think_s);
        const int expected_total = static_cast<int>(rounded < 1 ? 1 : rounded);
        EXPECT_EQ(split.total(), expected_total)
            << "rate=" << rate << " f=" << f << " think=" << think_s;
        EXPECT_GE(split.browsers, 0);
        EXPECT_GE(split.writers, 0);
        // The browser share lands within one client of its exact value.
        EXPECT_LE(std::abs(split.browsers - rate * f * think_s), 1.0)
            << "rate=" << rate << " f=" << f << " think=" << think_s;
      }
    }
  }
}

TEST(ClientSplitTest, HalfRoundingDoesNotInventAClient) {
  // rate*think = 10.5 and both shares at *.25: independent rounding gave
  // 5 + 5 = 10 against a total of 11.
  const auto split = LoadGenerator::split_clients(1.5, 0.5, sec(7));
  EXPECT_EQ(split.total(), 11);
  EXPECT_EQ(split.browsers, 5);
  EXPECT_EQ(split.writers, 6);
}

TEST(ClientSplitTest, TrickleRateGroupStillIssuesRequests) {
  // rate*think = 0.35 rounded both kinds to zero clients: a configured
  // group silently produced no load at all.
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  LoadGenConfig cfg;
  cfg.think_time = sec(7);
  LoadGenerator gen{w.sim, exec, w.collector, cfg};
  gen.start_group(w.spec(0.05, 0.5), sim::SimTime::origin() + sec(100), w.sim.rng().fork("g"));
  w.sim.run_until();
  EXPECT_GT(exec.requests_, 0u) << "a group with rate > 0 must field at least one client";
  EXPECT_EQ(gen.requests_issued(), exec.requests_);
}

// --- Regression: the end-of-run window rule (ISSUE 9 bugfix 3) ---------------
// Requests count at issue time; nothing issues at or after end_at; a
// completion landing after end_at records whenever the simulation runs it.
// requests_ used to be bumped at completion, so a truncated run undercounted
// by exactly the in-flight tail.

TEST(EndOfRunTest, IssueTimeCountingExposesTheInFlightTail) {
  LoadWorld w;
  FakeExecutor slow{w.sim, sec(60)};  // responses land far past end_at
  LoadGenConfig cfg;
  cfg.think_time = sec(5);
  cfg.between_sessions = Duration::zero();
  LoadGenerator gen{w.sim, slow, w.collector, cfg};
  const sim::SimTime end = sim::SimTime::origin() + sec(30);
  // rate*think = 10 clients; each issues exactly one request before end.
  gen.start_group(w.spec(2.0, 1.0), end, w.sim.rng().fork("g"));

  w.sim.run_until(end);
  EXPECT_EQ(gen.requests_issued(), 10u) << "issue-time counting sees the in-flight requests";
  EXPECT_EQ(gen.requests_completed(), 0u);
  EXPECT_EQ(gen.requests_in_flight(), 10u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 0u);

  // Draining past end_at records every completion without issuing anything
  // new: issued == completed once the tail lands.
  w.sim.run_until();
  EXPECT_EQ(gen.requests_issued(), 10u);
  EXPECT_EQ(gen.requests_completed(), 10u);
  EXPECT_EQ(gen.requests_in_flight(), 0u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 10u);
}

}  // namespace
}  // namespace mutsvc::workload
