// Million-session FSM load engine (ISSUE 9): sessions as 40-byte records in
// a flat arena, driven by a calendar of due-time buckets. Pins the timing
// semantics against the coroutine LoadGenerator (same model, same streams,
// same collector digest), the end-of-run window rule, the empty-script
// rule, determinism under repeat runs, the memory-per-session budget, and
// step_factory's per-session stream contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"
#include "workload/loadgen.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::workload {
namespace {

using sim::Duration;
using sim::ms;
using sim::sec;
using sim::Simulator;
using sim::Task;

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

/// Three-page fixed script as an FSM model (the FixedSession of
/// workload_test, expressed as a pure per-step function).
class FixedModel final : public FsmScriptModel {
 public:
  explicit FixedModel(const char* pattern) : pattern_(pattern) {}
  std::optional<PageRequest> next(std::uint32_t step, FsmScratch&, SmallRng&) const override {
    if (step >= 3) return std::nullopt;
    PageRequest req;
    req.page = "P" + std::to_string(step);
    req.pattern = pattern_;
    req.component = "Web";
    req.method = "page";
    return req;
  }
  const char* pattern() const override { return pattern_; }

 private:
  const char* pattern_;
};

class EmptyModel final : public FsmScriptModel {
 public:
  std::optional<PageRequest> next(std::uint32_t, FsmScratch&, SmallRng&) const override {
    return std::nullopt;
  }
  const char* pattern() const override { return "Empty"; }
};

struct FsmWorld {
  Simulator sim{5};
  stats::ResponseTimeCollector collector;
};

TEST(SessionFsmTest, RecordIsFortyBytes) {
  // The tentpole claim: a suspended session is tens of bytes, not a
  // coroutine frame. The static_assert in the engine pins the layout; this
  // pins the public accessor.
  EXPECT_EQ(SessionFsmEngine::record_bytes(), 40u);
}

TEST(SessionFsmTest, PopulationOffersOneRequestPerThinkTime) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(20)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(5);
  cfg.between_sessions = Duration::zero();
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  const double duration_s = 300.0;
  engine.start_population(k, 50, sim::SimTime::origin() + sec(duration_s), 42);
  w.sim.run_until();
  // 50 sessions at one request per 5s think -> ~10/s.
  const double achieved = static_cast<double>(exec.requests_) / duration_s;
  EXPECT_NEAR(achieved, 10.0, 1.0);
  EXPECT_EQ(engine.requests_issued(), exec.requests_);
  EXPECT_EQ(engine.requests_issued(), engine.requests_completed());
  EXPECT_EQ(engine.requests_in_flight(), 0u);
  EXPECT_TRUE(w.sim.idle());
}

TEST(SessionFsmTest, RecurringSessionsRestartAfterBetweenSessions) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(2);
  cfg.between_sessions = sec(1);
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  engine.start_population(k, 4, sim::SimTime::origin() + sec(120), 7);
  w.sim.run_until();
  // 4 clients x (~1 session per 3-page*2s + 1s gap = 7s) over 120s.
  EXPECT_GT(engine.sessions_started(), 30u);
  EXPECT_EQ(engine.requests_issued(), exec.requests_);
  // Recurring sessions stay resident until the end cutoff releases them.
  EXPECT_EQ(engine.peak_live_sessions(), 4u);
  EXPECT_EQ(engine.live_sessions(), 0u);
}

TEST(SessionFsmTest, EndOfRunRuleMatchesTheLoadGenerator) {
  // Same pin as EndOfRunTest in workload_test: issue-time counting exposes
  // the in-flight tail at end_at, and draining records the completions.
  FsmWorld w;
  FakeExecutor slow{w.sim, sec(60)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(5);
  cfg.between_sessions = Duration::zero();
  SessionFsmEngine engine{w.sim, slow, w.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  const sim::SimTime end = sim::SimTime::origin() + sec(30);
  engine.start_population(k, 10, end, 3);

  w.sim.run_until(end);
  EXPECT_EQ(engine.requests_issued(), 10u);
  EXPECT_EQ(engine.requests_completed(), 0u);
  EXPECT_EQ(engine.requests_in_flight(), 10u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 0u);

  w.sim.run_until();
  EXPECT_EQ(engine.requests_issued(), 10u);
  EXPECT_EQ(engine.requests_completed(), 10u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 10u);
  EXPECT_EQ(engine.live_sessions(), 0u);
}

TEST(SessionFsmTest, EmptyModelsAreNeverCountedAsSessions) {
  // A script empty from step 0 never counts and its sterile sessions leave
  // the arena, while a productive kind beside it keeps running.
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  SessionFsmEngine engine{w.sim, exec, w.collector};
  const std::uint8_t empty = engine.add_kind(std::make_shared<EmptyModel>(), net::NodeId{0},
                                             stats::ClientGroup::kLocal);
  const std::uint8_t fixed = engine.add_kind(std::make_shared<FixedModel>("Writer"),
                                             net::NodeId{0}, stats::ClientGroup::kLocal);
  const sim::SimTime end = sim::SimTime::origin() + sec(60);
  engine.start_population(empty, 10, end, 5);
  engine.start_arrivals(empty, RateEnvelope::constant(5.0), end, 6);
  engine.start_arrivals(fixed, RateEnvelope::constant(1.0), end, 7);
  w.sim.run_until();
  EXPECT_GT(engine.sessions_started(), 0u);
  // Only productive sessions count: each issued its first page exactly once.
  EXPECT_EQ(engine.sessions_started(), static_cast<std::uint64_t>(exec.pages_["P0"]));
  EXPECT_EQ(engine.requests_issued(), exec.requests_);
  EXPECT_EQ(engine.live_sessions(), 0u);
  EXPECT_TRUE(w.sim.idle());
}

TEST(SessionFsmTest, OneShotArrivalsFollowTheEnvelope) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(2);
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  engine.start_arrivals(k, RateEnvelope::constant(5.0), sim::SimTime::origin() + sec(100), 9);
  w.sim.run_until();
  // ~500 one-shot sessions; each runs its 3-page script unless the end
  // cutoff truncates it.
  EXPECT_NEAR(static_cast<double>(engine.sessions_started()), 500.0, 70.0);
  EXPECT_LE(engine.requests_issued(), engine.sessions_started() * 3);
  EXPECT_GT(engine.requests_issued(), engine.sessions_started() * 2);
  EXPECT_EQ(engine.live_sessions(), 0u) << "one-shot sessions must leave the arena";
  EXPECT_EQ(engine.requests_issued(), engine.requests_completed());
}

TEST(SessionFsmTest, FlashCrowdArrivalsConcentrateInTheSpike) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(5)};
  SessionFsmEngine engine{w.sim, exec, w.collector};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  // 2/s base, 20/s during [100s, 130s): the spike should add ~600 sessions
  // on top of the ~200 base arrivals over 200s.
  engine.start_arrivals(k, RateEnvelope::flash_crowd(1.0, 10.0, sec(100), sec(30)),
                        sim::SimTime::origin() + sec(200), 11);
  w.sim.run_until();
  const double expected = 1.0 * 170.0 + 10.0 * 30.0;
  EXPECT_NEAR(static_cast<double>(engine.sessions_started()), expected, expected * 0.15);
}

std::uint64_t digest_run(std::uint64_t seed, std::size_t sessions, double rate) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(25)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(3);
  cfg.between_sessions = sec(1);
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  const std::uint8_t b = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  const std::uint8_t o = engine.add_kind(std::make_shared<FixedModel>("Writer"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  const sim::SimTime end = sim::SimTime::origin() + sec(90);
  engine.start_population(b, sessions, end, SmallRng::named_seed(seed, "b"));
  engine.start_arrivals(o, RateEnvelope::constant(rate), end, SmallRng::named_seed(seed, "o"));
  w.sim.run_until();
  // Fold every observable into one word: any divergence flips the digest.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  fold(engine.requests_issued());
  fold(engine.sessions_started());
  fold(engine.peak_live_sessions());
  fold(w.collector.total_samples() + w.collector.discarded_samples());
  fold(static_cast<std::uint64_t>(w.sim.now().count_micros()));
  return h;
}

TEST(SessionFsmTest, RepeatRunsAreBitIdentical) {
  const std::uint64_t a = digest_run(1234, 30, 4.0);
  const std::uint64_t b = digest_run(1234, 30, 4.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, digest_run(1235, 30, 4.0)) << "the seed must actually steer the run";
}

// --- FSM vs coroutine equivalence --------------------------------------------
// A reference per-session coroutine driver implementing the engine's exact
// timing contract (same per-session streams, same stagger rule, same soft
// delay, same end rule) must produce the same aggregate digest. This is the
// pin that the arena+calendar machinery changes *representation*, not
// *semantics*.

class ReferenceDriver {
 public:
  ReferenceDriver(Simulator& sim, RequestExecutor& exec, SessionFsmEngine::Config cfg)
      : sim_(sim), exec_(exec), cfg_(cfg) {}

  void start_population(const FsmScriptModel& model, std::size_t count, sim::SimTime end_at,
                        std::uint64_t seed) {
    for (std::size_t i = 0; i < count; ++i) {
      sim_.spawn(run_session(model, SmallRng::stream_seed(seed, i), end_at));
    }
  }

  std::uint64_t issued_ = 0;

 private:
  [[nodiscard]] Task<void> run_session(const FsmScriptModel& model, std::uint64_t rng_seed,
                                       sim::SimTime end_at) {
    SmallRng rng{rng_seed};
    // Same stagger rule: the session's own first draw, uniform over one
    // think interval.
    co_await sim_.wait(
        Duration::seconds(rng.uniform(0.0, cfg_.think_time.as_seconds())));
    FsmScratch scratch;
    std::uint32_t step = 0;
    while (true) {
      if (sim_.now() >= end_at) co_return;
      std::optional<PageRequest> req = model.next(step, scratch, rng);
      if (!req) {
        if (step == 0) co_return;  // sterile
        step = 0;
        scratch = FsmScratch{};
        const sim::SimTime next = sim_.now() + cfg_.between_sessions;
        if (next >= end_at) co_return;
        co_await sim_.wait(next - sim_.now());
        continue;
      }
      ++step;
      ++issued_;
      const sim::SimTime issued_at = sim_.now();
      (void)co_await exec_.execute(net::NodeId{0}, *req);
      sim::SimTime next = issued_at + cfg_.think_time;  // §3.3 soft delay
      if (next < sim_.now()) next = sim_.now();
      if (next >= end_at) co_return;
      co_await sim_.wait(next - sim_.now());
    }
  }

  Simulator& sim_;
  RequestExecutor& exec_;
  SessionFsmEngine::Config cfg_;
};

/// A script model that actually exercises rng and scratch, so equivalence
/// covers the full record round-trip, not just step counting.
class RandomWalkModel final : public FsmScriptModel {
 public:
  std::optional<PageRequest> next(std::uint32_t step, FsmScratch& scratch,
                                  SmallRng& rng) const override {
    if (step == 0) scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(0, 9));
    const auto len = 2 + scratch.w0 % 4;  // session length 2..5, drawn at step 0
    if (step >= len) return std::nullopt;
    PageRequest req;
    req.page = "W" + std::to_string(rng.uniform_int(0, 2));
    req.pattern = "Walk";
    req.component = "Web";
    req.method = "page";
    return req;
  }
  const char* pattern() const override { return "Walk"; }
};

TEST(SessionFsmTest, MatchesACoroutineReferenceDriver) {
  constexpr std::size_t kSessions = 40;
  constexpr std::uint64_t kSeed = 99;
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(4);
  cfg.between_sessions = sec(2);
  const sim::SimTime end = sim::SimTime::origin() + sec(120);
  const RandomWalkModel model;

  FsmWorld ref_world;
  FakeExecutor ref_exec{ref_world.sim, ms(30)};
  ReferenceDriver ref{ref_world.sim, ref_exec, cfg};
  ref.start_population(model, kSessions, end, kSeed);
  ref_world.sim.run_until();

  FsmWorld fsm_world;
  FakeExecutor fsm_exec{fsm_world.sim, ms(30)};
  SessionFsmEngine engine{fsm_world.sim, fsm_exec, fsm_world.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<RandomWalkModel>(), net::NodeId{0},
                                         stats::ClientGroup::kLocal);
  engine.start_population(k, kSessions, end, kSeed);
  fsm_world.sim.run_until();

  EXPECT_EQ(engine.requests_issued(), ref.issued_);
  EXPECT_EQ(fsm_exec.requests_, ref_exec.requests_);
  EXPECT_EQ(fsm_exec.pages_, ref_exec.pages_) << "per-page counts must match exactly";
  EXPECT_EQ(fsm_world.sim.now().count_micros(), ref_world.sim.now().count_micros())
      << "the last event must land at the same instant";
}

TEST(SessionFsmTest, HundredThousandSessionsStayUnderTheByteBudget) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  SessionFsmEngine::Config cfg;
  cfg.think_time = sec(7);
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  const std::uint8_t k = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                         net::NodeId{0}, stats::ClientGroup::kLocal);
  constexpr std::size_t kSessions = 100000;
  // A short window: the staggered fleet only partially fires, which keeps
  // the test fast while the arena holds the full population.
  engine.start_population(k, kSessions, sim::SimTime::origin() + sec(1), 77);
  EXPECT_EQ(engine.live_sessions(), kSessions);
  const double per_session =
      static_cast<double>(engine.arena_bytes()) / static_cast<double>(kSessions);
  EXPECT_LE(per_session, 96.0) << "suspended sessions must stay tens of bytes";
  w.sim.run_until();
  EXPECT_GT(engine.requests_issued(), kSessions / 10);
  EXPECT_EQ(engine.live_sessions(), 0u);
}

// --- One pattern, both drivers ------------------------------------------------

/// A step function generic over the rng type, like the app patterns: it
/// draws its length at step 0 and walks a counter kept in scratch.
struct WalkStep {
  template <class Rng>
  std::optional<PageRequest> operator()(std::uint32_t step, FsmScratch& scratch,
                                        Rng& rng) const {
    if (step == 0) scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(2, 6));
    if (step >= scratch.w0) return std::nullopt;
    scratch.w1 += static_cast<std::uint64_t>(rng.uniform_int(0, 9));
    PageRequest req;
    req.page = "W" + std::to_string(scratch.w1);
    req.pattern = "Walk";
    req.component = "Web";
    req.method = "page";
    return req;
  }
};

TEST(StepFactoryTest, SessionNReplaysTheStepOnForkSN) {
  // The coroutine driver's per-session stream contract, which the ladder
  // goldens and the GridViz trajectory rest on: session n draws from
  // rng.fork("s<n>"), n counted across every copy of the factory.
  constexpr std::uint64_t kSeed = 31;
  const SessionFactory factory = step_factory("Walk", WalkStep{}, sim::RngStream{kSeed});
  const SessionFactory copy = factory;
  std::vector<std::vector<std::string>> sessions;
  for (int n = 0; n < 6; ++n) {
    const std::unique_ptr<SessionScript> script = (n % 2 == 0 ? factory : copy)();
    EXPECT_STREQ(script->pattern(), "Walk");
    std::vector<std::string> pages;
    while (auto req = script->next()) pages.push_back(req->page);

    sim::RngStream rng = sim::RngStream{kSeed}.fork("s" + std::to_string(n));
    FsmScratch scratch;
    std::vector<std::string> expected;
    for (std::uint32_t step = 0;; ++step) {
      std::optional<PageRequest> req = WalkStep{}(step, scratch, rng);
      if (!req) break;
      expected.push_back(req->page);
    }
    EXPECT_EQ(pages, expected) << "session " << n;
    sessions.push_back(std::move(pages));
  }
  EXPECT_NE(sessions[0], sessions[1]) << "each session must draw from its own stream";
}

TEST(SessionFsmTest, ConfigValidationRejectsNonPositiveDurations) {
  FsmWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  SessionFsmEngine::Config bad;
  bad.calendar_quantum = Duration::zero();
  EXPECT_THROW((SessionFsmEngine{w.sim, exec, w.collector, bad}), std::invalid_argument);
  SessionFsmEngine::Config bad2;
  bad2.think_time = Duration::zero();
  EXPECT_THROW((SessionFsmEngine{w.sim, exec, w.collector, bad2}), std::invalid_argument);

  SessionFsmEngine engine{w.sim, exec, w.collector};
  EXPECT_THROW(engine.start_population(3, 1, sim::SimTime::origin() + sec(1), 0),
               std::invalid_argument);  // unknown kind
}

}  // namespace
}  // namespace mutsvc::workload
