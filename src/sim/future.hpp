#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mutsvc::sim {

/// One-shot asynchronous value, usable across coroutines.
///
/// `Promise<T>` is the producer side; `Future<T>` the (copyable, shared)
/// consumer side. Waiters are resumed through the event queue at the time
/// of fulfilment, so wake-ups interleave deterministically with other
/// events scheduled at the same instant.
template <class T>
class Promise;

namespace detail {

template <class T>
struct FutureState {
  Simulator* sim = nullptr;
  std::optional<T> value;
  std::exception_ptr exception;
  std::vector<std::coroutine_handle<>> waiters;

  [[nodiscard]] bool ready() const { return value.has_value() || exception != nullptr; }

  void wake_all() {
    auto pending = std::move(waiters);
    waiters.clear();
    for (auto h : pending) {
      sim->schedule_resume_after(Duration::zero(), h);
    }
  }
};

struct Unit {};

}  // namespace detail

template <class T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool ready() const { return state_ && state_->ready(); }

  bool await_ready() const {
    if (!state_) throw std::logic_error("await on invalid Future");
    return state_->ready();
  }
  void await_suspend(std::coroutine_handle<> h) { state_->waiters.push_back(h); }
  T await_resume() {
    if (state_->exception) std::rethrow_exception(state_->exception);
    return *state_->value;
  }

  /// Non-awaiting accessor for tests and post-run inspection.
  [[nodiscard]] const T& get() const {
    if (!ready()) throw std::logic_error("Future::get before ready");
    if (state_->exception) std::rethrow_exception(state_->exception);
    return *state_->value;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <class T>
class Promise {
 public:
  explicit Promise(Simulator& sim) : state_(std::make_shared<detail::FutureState<T>>()) {
    state_->sim = &sim;
  }

  [[nodiscard]] Future<T> future() const { return Future<T>{state_}; }

  void set_value(T v) {
    if (state_->ready()) throw std::logic_error("Promise fulfilled twice");
    state_->value = std::move(v);
    state_->wake_all();
  }

  void set_exception(std::exception_ptr e) {
    if (state_->ready()) throw std::logic_error("Promise fulfilled twice");
    state_->exception = std::move(e);
    state_->wake_all();
  }

  [[nodiscard]] bool fulfilled() const { return state_->ready(); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

namespace detail {

// NOTE: coroutine — parameters by value (the lazy task must own them).
[[nodiscard]] inline Task<void> fulfil_when_done(Task<void> task, Promise<Unit> done) {
  std::exception_ptr err;
  try {
    co_await std::move(task);
  } catch (...) {
    err = std::current_exception();
  }
  if (err != nullptr) {
    done.set_exception(std::move(err));
  } else {
    done.set_value(Unit{});
  }
}

}  // namespace detail

/// Runs `tasks` concurrently (each spawned as its own top-level task, in
/// index order) and completes once every one has finished. Joins are awaited
/// in index order, so completion interleaving is deterministic. If any task
/// threw, the first exception *by index* is rethrown — but only after all
/// tasks have finished, so no work is abandoned mid-flight.
///
/// This is the scatter-gather primitive of the sharded data tier: one leg
/// per shard, all in flight at once, merged on the caller's coroutine.
// NOTE: coroutine — `tasks` by value.
[[nodiscard]] inline Task<void> when_all(Simulator& sim, std::vector<Task<void>> tasks) {
  std::vector<Future<detail::Unit>> joins;
  joins.reserve(tasks.size());
  for (Task<void>& t : tasks) {
    Promise<detail::Unit> done{sim};
    joins.push_back(done.future());
    sim.spawn(detail::fulfil_when_done(std::move(t), std::move(done)));
  }
  std::exception_ptr first;
  for (Future<detail::Unit>& join : joins) {
    try {
      (void)co_await join;
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace mutsvc::sim
