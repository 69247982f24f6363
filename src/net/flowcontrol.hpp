#pragma once

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "net/types.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mutsvc::net {

/// A bounded queue refused an item under OverflowPolicy::kBounce. Derives
/// from NetError so it rides the existing transient-failure machinery —
/// whole-page retries, coalescer flush re-merge, queued-write redelivery —
/// instead of needing its own recovery paths.
class OverloadError : public NetError {
 public:
  using NetError::NetError;
};

/// What a bounded queue does with an arrival once it is at capacity
/// (the multi-DC overflow menu): drop it on the floor, bounce it back to
/// the producer as a retryable failure, or divert it into a local spill
/// buffer that drains once the queue falls to its low watermark.
enum class OverflowPolicy { kDrop, kBounce, kLocalOverflow };

[[nodiscard]] inline const char* to_string(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::kDrop:
      return "drop";
    case OverflowPolicy::kBounce:
      return "bounce";
    case OverflowPolicy::kLocalOverflow:
      return "local-overflow";
  }
  return "?";
}

/// Capacity + overflow policy for one queue family. `capacity == 0` keeps
/// the seed's unbounded behaviour (no shedding, no watermarks, no credit
/// signal) — the off state must be indistinguishable from the pre-flow-
/// control code, event for event.
struct QueueBound {
  std::size_t capacity = 0;
  OverflowPolicy policy = OverflowPolicy::kDrop;
  /// kLocalOverflow: spill-buffer capacity per queue (0 = unbounded spill).
  /// A full spill buffer sheds, so memory stays bounded either way.
  std::size_t spill_capacity = 0;
  /// Credit watermarks on the backlog (queue + spill). Zero derives 3/4 of
  /// capacity (high) and 1/4 (low).
  std::size_t high_watermark = 0;
  std::size_t low_watermark = 0;

  [[nodiscard]] bool bounded() const { return capacity > 0; }
  [[nodiscard]] std::size_t high() const {
    if (!bounded()) return 0;
    const std::size_t h =
        high_watermark > 0 ? high_watermark : std::max<std::size_t>(1, capacity * 3 / 4);
    return std::min(h, capacity);
  }
  [[nodiscard]] std::size_t low() const {
    if (!bounded()) return 0;
    const std::size_t h = high();
    const std::size_t l = low_watermark > 0 ? low_watermark : capacity / 4;
    return h > 0 ? std::min(l, h - 1) : 0;  // hysteresis needs low < high
  }
};

/// Deterministic token bucket on the integer simulation clock, in GCRA
/// form: instead of a fractional token count it tracks the theoretical
/// arrival time (TAT) of the next conforming request, so admission is pure
/// integer-microsecond arithmetic — bit-identical at any MUTSVC_JOBS value
/// and under SimCheck, with no float accumulation drift.
class TokenBucket {
 public:
  /// `rate_per_sec` sustained admissions per second; `burst` requests may
  /// pass back to back after an idle period (>= 1).
  TokenBucket(double rate_per_sec, double burst) {
    if (rate_per_sec <= 0.0) throw std::invalid_argument("TokenBucket: rate must be > 0");
    if (burst < 1.0) throw std::invalid_argument("TokenBucket: burst must be >= 1");
    const auto us = static_cast<std::int64_t>(std::llround(1e6 / rate_per_sec));
    increment_ = sim::Duration::micros(std::max<std::int64_t>(us, 1));
    tolerance_ = sim::Duration::micros(static_cast<std::int64_t>(
        std::llround((burst - 1.0) * static_cast<double>(increment_.count_micros()))));
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
  sim::Duration increment_;
  sim::Duration tolerance_;
  sim::SimTime tat_ = sim::SimTime::origin();
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Byte-rate shaper for a link (the WAN rate limit): a leaky bucket over
/// bytes that never rejects — it returns how long the caller must delay
/// before its bytes may enter the pipe. State commits at reservation time,
/// so concurrent senders are serialized deterministically in call order.
class RateLimiter {
 public:
  /// `rate_bps` in bits per second (matching Link::bandwidth_bps);
  /// exactly `burst_bytes` may enter immediately after an idle period.
  RateLimiter(double rate_bps, Bytes burst_bytes)
      : rate_bps_(rate_bps), burst_(static_cast<double>(burst_bytes)), tokens_(burst_) {
    if (rate_bps <= 0.0) throw std::invalid_argument("RateLimiter: rate must be > 0");
  }

  /// Reserves `size` bytes at `now`; the caller must wait the returned
  /// duration before transmitting (zero when within the burst allowance).
  [[nodiscard]] sim::Duration reserve(sim::SimTime now, Bytes size) {
    // Continuous line-rate refill capped at the burst depth. `tokens_`
    // goes negative when callers reserve ahead of the line rate; the
    // deficit is exactly the backlog this reservation must wait out.
    if (now > last_) {
      const double refill = (now - last_).as_seconds() * rate_bps_ / 8.0;
      tokens_ = std::min(burst_, tokens_ + refill);
      last_ = now;
    }
    tokens_ -= static_cast<double>(size);
    bytes_ += size;
    if (tokens_ >= 0.0) return sim::Duration::zero();
    const sim::Duration delay = sim::Duration::seconds(-tokens_ * 8.0 / rate_bps_);
    ++throttled_;
    throttle_time_ += delay;
    return delay;
  }

  [[nodiscard]] std::uint64_t throttled() const { return throttled_; }
  [[nodiscard]] sim::Duration throttle_time() const { return throttle_time_; }
  [[nodiscard]] Bytes bytes_shaped() const { return bytes_; }

 private:
  double rate_bps_;
  double burst_;
  double tokens_;
  sim::SimTime last_ = sim::SimTime::origin();
  std::uint64_t throttled_ = 0;
  sim::Duration throttle_time_;
  Bytes bytes_ = 0;
};

/// The backpressure credit signal: writers `co_await wait()` before
/// producing; a queue crossing its high watermark closes the gate, parking
/// them, and falling back to the low watermark reopens it, resuming the
/// parked writers in FIFO order. Each resumed writer re-checks the gate, so
/// a refill that immediately re-crosses the high watermark parks the rest
/// again — the producers collectively slow to the consumer's drain rate.
class CreditGate {
 public:
  explicit CreditGate(sim::Simulator& sim) : sim_(sim) {}

  CreditGate(const CreditGate&) = delete;
  CreditGate& operator=(const CreditGate&) = delete;

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }
  /// Number of wait() calls that actually parked (counted once per call).
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }

  void close_gate() { open_ = false; }

  void open_gate() {
    if (open_) return;
    open_ = true;
    // Move the list out first: a resumed writer may close the gate and
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
  /// the trajectory is untouched when flow control never closes it).
  [[nodiscard]] sim::Task<void> wait() {
    bool counted = false;
    while (!open_) {
      if (!counted) {
        ++stalls_;
        counted = true;
      }
      co_await Park{*this};
    }
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
  std::uint64_t stalls_ = 0;
};

/// Off-by-default overload protection (flash-crowd robustness). When
/// `enabled` is false nothing below is installed anywhere: no buckets, no
/// bounds, no limiters, no gates — trajectories are bit-identical to the
/// pre-flow-control simulator (golden-enforced).
struct FlowControlConfig {
  bool enabled = false;

  /// (1) Admission control: one deterministic token bucket per entry node,
  /// in pages/sec. Rejected pages complete instantly with the distinct
  /// `rejected_admission` outcome. Zero leaves admission off even when
  /// flow control is otherwise enabled.
  double admission_rate = 0.0;
  double admission_burst = 10.0;

  /// (2) Bounded queues with shedding.
  QueueBound topic_queue;     // msg::Topic per-subscriber queues
  QueueBound coalescer_lane;  // msg::Coalescer per-lane buffered items
  QueueBound write_queue;     // degraded-mode store-and-forward queues

  /// (3) Per-WAN-link byte shaping, bits/sec per directed link crossing the
  /// WAN threshold (0 = unlimited).
  double wan_rate_bps = 0.0;
  Bytes wan_burst_bytes = 64 * 1024;

  /// (4) Backpressure: credit gates on the topic-queue watermarks; the
  /// facade async publish path and the coalescer flush park while closed.
  bool backpressure = true;
};

}  // namespace mutsvc::net
