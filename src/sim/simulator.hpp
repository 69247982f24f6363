#pragma once

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
/// Owns the virtual clock and the event heap. Events scheduled for the same
/// time fire in insertion order (stable FIFO tie-break), which makes runs
/// fully deterministic.
///
/// Hot-path layout: the heap itself holds 24-byte POD nodes (time, order
/// key, payload), so sift operations are plain memmoves with no callable
/// moves. A payload with bit 0 set is a bare coroutine-resume handle — the
/// dominant `wait()` path — executed without ever touching the callable
/// slab; otherwise the payload is a slab slot (an `EventFn` recycled through
/// a freelist). Slot recycling is driven purely by the (deterministic)
/// event order, so it never perturbs results.
///
/// Lookahead domains (DESIGN §15): `enable_domains()` tags every event with
/// the domain that created it (owner) and the domain it runs in (target).
/// The order key packs `target(8) | owner(8) | per-owner seq(48)` and the
/// heap comparator masks the target byte off, so same-time events fire in
/// `(owner, seq)` order — a total order assigned where the event is
/// *created*. The experiment harness partitions its testbed into WAN
/// islands this way, and the paper-ladder goldens are recorded in that
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
  /// callable slab entirely: the handle rides in the heap node itself.
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

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
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
  /// Order key: target(8) | owner(8) | per-owner sequence(48). The
  /// comparator masks the target byte so the order is (time, owner, seq).
  /// Untagged events use owner 0 and the global sequence: exactly the
  /// plain (time, seq) FIFO order.
  static constexpr std::uint64_t kOrderMask = 0x00FF'FFFF'FFFF'FFFFULL;

  struct HeapNode {
    SimTime at;
    std::uint64_t key;
    std::uintptr_t payload;  // bit 0: coroutine handle; else slab slot << 1
  };
  struct NodeOrder {
    bool operator()(const HeapNode& a, const HeapNode& b) const {
      if (a.at != b.at) return a.at > b.at;                      // min-heap on time
      return (a.key & kOrderMask) > (b.key & kOrderMask);        // (owner, seq)
    }
  };

  [[nodiscard]] std::uint64_t next_key(DomainId target, DomainId owner);
  void push_event(SimTime at, std::uint64_t key, std::uintptr_t payload);
  [[nodiscard]] std::uintptr_t make_slot(EventFn fn);
  void schedule_resume_in(DomainId dest, Duration d, std::coroutine_handle<> h);
  void dispatch(const HeapNode& node);

  SimTime now_;
  std::size_t executed_ = 0;
  std::uint32_t domain_count_ = 0;  // 0 = untagged (bare simulator)
  DomainId current_domain_ = 0;
  std::vector<HeapNode> heap_;
  std::vector<EventFn> slots_;             // slab of pending callables
  std::vector<std::uint32_t> free_slots_;  // recycled slab slots
  std::vector<std::uint64_t> next_seq_;    // per-owner sequence counters
  RngStream rng_;
};

}  // namespace mutsvc::sim
