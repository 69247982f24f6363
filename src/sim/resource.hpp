#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mutsvc::sim {

/// A FIFO multi-server resource (e.g. a CPU pool with k processors).
///
/// Requests are served in arrival order; each holder occupies one server
/// until release. Tracks the busy-time integral so callers can compute
/// utilization over a measurement window. `acquire()` holders (thread
/// pools, `SimMutex`) and `consume(d)` holders (node CPUs, link
/// serializers) queue on the same FIFO.
class FifoResource {
 public:
  FifoResource(Simulator& sim, std::size_t servers, std::string name = "resource")
      : sim_(sim), servers_(servers), free_(servers), name_(std::move(name)) {
    if (servers == 0) throw std::invalid_argument("FifoResource: servers must be > 0");
  }

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Awaitable acquisition of one server slot.
  [[nodiscard]] auto acquire() {
    struct Awaiter {
      FifoResource& r;
      bool await_ready() {
        if (r.free_ > 0) {
          r.take_slot();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { r.waiters_.push_back(Waiter{h, {}}); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Releases one previously acquired server slot.
  void release() {
    if (busy_ == 0) throw std::logic_error("FifoResource::release without acquire");
    accumulate_busy();
    --busy_;
    if (head_ < waiters_.size()) {
      const Waiter w = pop_waiter();
      ++busy_;  // hand the slot straight to the next waiter
      if (w.hold) {
        // A queued consume(): the hand-off event starts its hold.
        sim_.schedule_after(Duration::zero(), [&sim = sim_, h = w.h, d = *w.hold] {
          sim.schedule_resume_after(d, h);
        });
      } else {
        sim_.schedule_resume_after(Duration::zero(), w.h);
      }
    } else {
      ++free_;
    }
  }

  /// Awaitable that acquires a server, holds it for `d` and releases it:
  /// the "consume CPU" primitive. No coroutine frame: the caller itself
  /// sleeps through the hold and releases on resume. A queued consumer
  /// gets its slot through the same zero-delay hand-off event as an
  /// `acquire()` waiter, and that event schedules the hold, so every event
  /// keeps the time and order key of acquire + wait(d) + release.
  [[nodiscard]] auto consume(Duration d) {
    struct Awaiter {
      FifoResource& r;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        if (r.free_ > 0) {
          r.take_slot();
          r.sim_.schedule_resume_after(d, h);
        } else {
          r.waiters_.push_back(Waiter{h, d});
        }
      }
      void await_resume() { r.release(); }
    };
    return Awaiter{*this, d};
  }

  [[nodiscard]] std::size_t servers() const { return servers_; }
  [[nodiscard]] std::size_t busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size() - head_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Resets the utilization accounting window (call at end of warm-up).
  void reset_utilization() {
    accumulate_busy();
    busy_integral_ = Duration::zero();
    integral_reset_at_ = sim_.now();
  }

  /// Mean per-server utilization since the last reset (or sim start).
  [[nodiscard]] double utilization() {
    accumulate_busy();
    Duration window = sim_.now() - integral_reset_at_;
    if (window <= Duration::zero()) return 0.0;
    return busy_integral_ / window / static_cast<double>(servers_);
  }

 private:
  void take_slot() {
    accumulate_busy();
    --free_;
    ++busy_;
  }

  void accumulate_busy() {
    busy_integral_ += (sim_.now() - last_change_) * static_cast<double>(busy_);
    last_change_ = sim_.now();
  }

  struct Waiter {
    std::coroutine_handle<> h;
    std::optional<Duration> hold;  // set for consume(d); empty for acquire()
  };

  /// Takes the oldest waiter. The queue is a vector read from `head_`: it
  /// allocates nothing until a first waiter queues and keeps its capacity
  /// afterwards. The read index resets when the queue drains, and the
  /// served prefix is dropped once it is half the buffer, so a queue that
  /// never drains stays bounded.
  Waiter pop_waiter() {
    const Waiter w = waiters_[head_++];
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    } else if (head_ >= 32 && 2 * head_ >= waiters_.size()) {
      waiters_.erase(waiters_.begin(), waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return w;
  }

  Simulator& sim_;
  std::size_t servers_;
  std::size_t free_;
  std::size_t busy_ = 0;
  std::vector<Waiter> waiters_;  // FIFO from head_ (see pop_waiter)
  std::size_t head_ = 0;
  std::string name_;
  Duration busy_integral_ = Duration::zero();
  SimTime last_change_ = SimTime::origin();
  SimTime integral_reset_at_ = SimTime::origin();
};

/// A FIFO mutual-exclusion lock for simulated tasks.
class SimMutex {
 public:
  explicit SimMutex(Simulator& sim) : res_(sim, 1, "mutex") {}

  [[nodiscard]] auto acquire() { return res_.acquire(); }
  void release() { res_.release(); }
  [[nodiscard]] bool locked() const { return res_.busy() > 0; }
  [[nodiscard]] std::size_t queue_length() const { return res_.queue_length(); }

 private:
  FifoResource res_;
};

}  // namespace mutsvc::sim
