#pragma once

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mutsvc::net {

/// Deterministic token bucket on the integer simulation clock, in GCRA
/// form: instead of a fractional token count it tracks the theoretical
/// arrival time (TAT) of the next conforming request, so admission is pure
/// integer-microsecond arithmetic — bit-identical at any MUTSVC_JOBS value
/// and under SimCheck, with no float accumulation drift.
class TokenBucket {
 public:
  /// `rate_per_sec` sustained admissions per second; `burst` requests may
  /// pass back to back after an idle period. Refuses a rate that is not
  /// finite and positive, a burst that is not finite and >= 1, and a pair
  /// whose refill window does not fit the microsecond clock.
  TokenBucket(double rate_per_sec, double burst) {
    if (!std::isfinite(rate_per_sec) || rate_per_sec <= 0.0) {
      throw std::invalid_argument("TokenBucket: rate must be finite and > 0");
    }
    if (!std::isfinite(burst) || burst < 1.0) {
      throw std::invalid_argument("TokenBucket: burst must be finite and >= 1");
    }
    // One admission's spacing in whole microseconds (at least one).
    const double increment = std::max(std::round(1e6 / rate_per_sec), 1.0);
    // burst × increment bounds both the tolerance and how far the TAT runs
    // ahead of `now`; capped at half the int64 clock, neither overflows
    // while `now` is under the other half (146,000 simulated years).
    if (burst * increment > kMaxWindowMicros) {
      throw std::invalid_argument(
          "TokenBucket: burst / rate must fit the microsecond clock (at most 2^62 us)");
    }
    increment_ = sim::Duration::micros(static_cast<std::int64_t>(increment));
    tolerance_ = sim::Duration::micros(
        static_cast<std::int64_t>(std::llround((burst - 1.0) * increment)));
  }

  /// Admits or rejects the arrival at `now`; admission commits one token.
  [[nodiscard]] bool try_acquire(sim::SimTime now) {
    if (tat_ <= now + tolerance_) {
      tat_ = std::max(tat_, now) + increment_;
      ++admitted_;
      return true;
    }
    ++rejected_;
    return false;
  }

  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

 private:
  static constexpr double kMaxWindowMicros = 0x1p62;

  sim::Duration increment_;
  sim::Duration tolerance_;
  sim::SimTime tat_ = sim::SimTime::origin();
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// A FIFO park gate: callers `co_await wait()`, which completes at once
/// while the gate is open and parks them while it is closed. Reopening
/// resumes the parked callers in arrival order; each resumed caller
/// re-checks the gate, so one that finds it closed again parks again.
/// Migration closes a component's gate to quiesce its calls (DESIGN §17).
class CreditGate {
 public:
  explicit CreditGate(sim::Simulator& sim) : sim_(sim) {}

  CreditGate(const CreditGate&) = delete;
  CreditGate& operator=(const CreditGate&) = delete;

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  void close_gate() { open_ = false; }

  void open_gate() {
    if (open_) return;
    open_ = true;
    // Move the list out first: a resumed caller may close the gate and
    // park again inside its resume.
    std::deque<std::coroutine_handle<>> parked = std::move(waiters_);
    waiters_.clear();
    for (std::coroutine_handle<> h : parked) {
      // A zero-delay resume preserves FIFO order via the event heap's
      // stable same-time tie-break.
      sim_.schedule_resume_after(sim::Duration::zero(), h);
    }
  }

  /// Completes immediately while the gate is open (no event scheduled, so
  /// the trajectory is untouched while nothing closes it).
  [[nodiscard]] sim::Task<void> wait() {
    while (!open_) co_await Park{*this};
  }

 private:
  struct Park {
    CreditGate& gate;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  sim::Simulator& sim_;
  bool open_ = true;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Overload protection: admission control, one deterministic token bucket
/// per entry node, in pages/sec. Rejected pages complete instantly with
/// the distinct `rejected_admission` outcome. A zero rate (the default)
/// installs nothing, so the trajectory is the unprotected one.
struct FlowControlConfig {
  double admission_rate = 0.0;
  double admission_burst = 10.0;
};

}  // namespace mutsvc::net
