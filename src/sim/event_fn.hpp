#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mutsvc::sim {

/// Move-only type-erased callable for the events that are not a bare
/// coroutine resume.
///
/// Resumes (`Simulator::wait()`, resource and future hand-offs) ride in the
/// heap node itself through `schedule_resume_at` and never build an
/// `EventFn`. What remains are callbacks: fault-plan transitions, session
/// timers, warm-up hooks and the hand-off that starts a queued
/// `FifoResource::consume` hold. `EventFn` keeps any nothrow-movable
/// callable up to `kInlineBytes` directly in the object (no allocation, no
/// pointer chase on invoke); larger captures spill to a single heap block
/// owned by the callable. Invocation, relocation, and destruction each cost
/// one indirect call through a static vtable.
class EventFn {
 public:
  /// Covers every capture list the simulation schedules today ([this]
  /// plus a handful of values); chosen so a heap node's slab slot stays
  /// within one cache line.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): intended sink type
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &SpillOps<Fn>::ops;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(o.storage_, storage_);
    o.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(o.storage_, storage_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  void operator()() { ops_->call(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable spilled past the inline buffer (tests/benches).
  [[nodiscard]] bool spilled() const noexcept { return ops_ != nullptr && ops_->spill; }

 private:
  struct Ops {
    void (*call)(void* self);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
    bool spill;
  };

  template <class Fn>
  struct InlineOps {
    static Fn* self(void* s) noexcept { return std::launder(reinterpret_cast<Fn*>(s)); }
    static void call(void* s) { (*self(s))(); }
    static void relocate(void* from, void* to) noexcept {
      Fn* f = self(from);
      ::new (to) Fn(std::move(*f));
      f->~Fn();
    }
    static void destroy(void* s) noexcept { self(s)->~Fn(); }
    static constexpr Ops ops{&call, &relocate, &destroy, false};
  };

  template <class Fn>
  struct SpillOps {
    static Fn* self(void* s) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(s));
    }
    static void call(void* s) { (*self(s))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) Fn*(self(from));
    }
    static void destroy(void* s) noexcept { delete self(s); }
    static constexpr Ops ops{&call, &relocate, &destroy, true};
  };

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace mutsvc::sim
