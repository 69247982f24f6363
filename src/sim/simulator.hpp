#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mutsvc::sim {

/// Discrete-event simulation kernel.
///
/// Owns the virtual clock and the event queue. Events fire in `(time,
/// order key)` order; events scheduled for the same time fire in insertion
/// order (stable FIFO tie-break), which makes runs fully deterministic.
///
/// Event queue (DESIGN §10): a radix heap on the event's integer
/// microsecond time, which the monotone clock allows because nothing is
/// scheduled before now(). `base_` is the time of the last event popped.
/// Bucket 0 holds the events at exactly `base_`, as a small binary heap on
/// the order key; bucket b >= 1 holds the events whose time first differs
/// from `base_` in bit b-1, unordered, so every bucket's events are earlier
/// than every higher bucket's. When bucket 0 runs dry, the lowest non-empty
/// bucket's earliest time becomes the new base and that bucket's events move
/// down, each to a strictly lower bucket (a lone event is popped where it
/// lies). `run_until(until)` never moves the base past `until`, so a caller
/// may schedule between `until` and the next pending event. The pop order
/// is exactly that of a heap over `(time, masked key)`.
///
/// Hot-path layout: buckets hold 24-byte POD nodes (time, order key,
/// payload), so moving an event is a plain copy with no callable moves. A
/// payload with bit 0 set is a bare coroutine-resume handle — the dominant
/// `wait()` path — executed without ever touching the callable slab;
/// otherwise the payload is a slab slot (an `EventFn` recycled through a
/// freelist). Slot recycling is driven purely by the (deterministic) event
/// order, so it never perturbs results.
///
/// Lookahead domains (DESIGN §15): `enable_domains()` tags every event with
/// the domain that created it (owner) and the domain it runs in (target).
/// The order key packs `target(8) | owner(8) | per-owner seq(48)` and
/// bucket 0 compares keys with the target byte masked off, so same-time
/// events fire in `(owner, seq)` order — a total order assigned where the
/// event is *created*. The experiment harness partitions its testbed into
/// WAN islands this way, and the paper-ladder goldens are recorded in that
/// order. With domains disabled the key degenerates to the global FIFO
/// sequence — bare Simulator users see the plain `(time, seq)` kernel.
class Simulator {
 public:
  using DomainId = std::uint8_t;

  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  void schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` to run `after` from now.
  void schedule_after(Duration after, EventFn fn) {
    schedule_at(now() + after, std::move(fn));
  }

  /// Schedules a bare coroutine resume — the `wait()` hot path. Skips the
  /// callable slab entirely: the handle rides in the queue node itself.
  void schedule_resume_at(SimTime at, std::coroutine_handle<> h);
  void schedule_resume_after(Duration after, std::coroutine_handle<> h) {
    schedule_resume_at(now() + after, h);
  }

  /// Launches a top-level coroutine. The task starts immediately (runs
  /// until its first suspension point) and its frame self-destroys on
  /// completion. An exception escaping a detached task terminates the
  /// simulation with a diagnostic — detached failures must not be silent.
  void spawn(Task<void> task);

  /// Awaitable that suspends the current task for `d` of simulated time.
  [[nodiscard]] auto wait(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule_resume_after(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the current task at the back of the
  /// current-time event queue (a cooperative yield).
  [[nodiscard]] auto yield() { return wait(Duration::zero()); }

  /// Runs until the event queue empties or the clock passes `until`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until = SimTime::max());

  /// Runs for `d` of simulated time from the current clock.
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  [[nodiscard]] bool idle() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }

  /// Root RNG; subsystems should fork named streams from it.
  [[nodiscard]] RngStream& rng() { return rng_; }

  // --- lookahead domains (event-order tagging, DESIGN §15) -----------------

  /// Turns on domain tagging with `count` domains. Must be called before
  /// any event is scheduled.
  void enable_domains(std::uint32_t count);

  /// Domain that owns the currently executing event (events it schedules
  /// are tagged with it). 0 outside event execution unless a DomainScope is
  /// active.
  [[nodiscard]] DomainId current_domain() const { return current_domain_; }

  /// RAII scope that sets the scheduling domain for setup-time code (client
  /// spawns, per-node timers). Must not span a co_await.
  class DomainScope {
   public:
    DomainScope(Simulator& sim, DomainId d);
    ~DomainScope() { sim_.current_domain_ = prev_; }
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    Simulator& sim_;
    DomainId prev_;
  };

  /// Awaitable that resumes the current task in domain `dest` after `d`:
  /// the hop that carries a message across an island boundary. The resume
  /// is keyed by the *sending* domain's sequence but executes as `dest`, so
  /// everything it schedules afterwards is owned by `dest`. On a bare
  /// simulator (no domains) it is a plain wait.
  [[nodiscard]] auto wait_in(DomainId dest, Duration d) {
    struct Awaiter {
      Simulator& sim;
      DomainId dest;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule_resume_in(dest, d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dest, d};
  }

 private:
  /// Order key: target(8) | owner(8) | per-owner sequence(48). Bucket 0
  /// masks the target byte so the order is (time, owner, seq). Untagged
  /// events use owner 0 and the global sequence: exactly the plain
  /// (time, seq) FIFO order.
  static constexpr std::uint64_t kOrderMask = 0x00FF'FFFF'FFFF'FFFFULL;

  /// Times are non-negative 63-bit microseconds, so bucket 63 (bit 62)
  /// is the highest an event can land in.
  static constexpr std::size_t kBuckets = 64;

  struct Node {
    SimTime at;
    std::uint64_t key;
    std::uintptr_t payload;  // bit 0: coroutine handle; else slab slot << 1
  };
  /// Bucket 0's heap order: a min-heap on the masked (owner, seq) key.
  struct KeyOrder {
    bool operator()(const Node& a, const Node& b) const {
      return (a.key & kOrderMask) > (b.key & kOrderMask);
    }
  };

  [[nodiscard]] std::uint64_t next_key(DomainId target, DomainId owner);
  void push_event(SimTime at, std::uint64_t key, std::uintptr_t payload);
  void place(SimTime at, std::uint64_t key, std::uintptr_t payload);
  [[nodiscard]] bool pop_next(SimTime until, Node& out);
  [[nodiscard]] std::uintptr_t make_slot(EventFn fn);
  void schedule_resume_in(DomainId dest, Duration d, std::coroutine_handle<> h);
  void dispatch(const Node& node);

  SimTime now_;
  std::size_t executed_ = 0;
  std::uint32_t domain_count_ = 0;  // 0 = untagged (bare simulator)
  DomainId current_domain_ = 0;
  SimTime base_;                                      // time of the last event popped
  std::array<std::vector<Node>, kBuckets> buckets_;   // [0]: heap at base_
  std::uint64_t occupied_ = 0;                        // bit b: buckets_[b] non-empty, b >= 1
  std::size_t pending_ = 0;
  std::vector<EventFn> slots_;             // slab of pending callables
  std::vector<std::uint32_t> free_slots_;  // recycled slab slots
  std::vector<std::uint64_t> next_seq_;    // per-owner sequence counters
  RngStream rng_;
};

}  // namespace mutsvc::sim
