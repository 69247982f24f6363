#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"

namespace mutsvc::sim {

/// A lazy coroutine task used for all simulated activities.
///
/// A `Task<T>` does not run until awaited; when it completes, control
/// transfers back to the awaiter (symmetric transfer, no stack growth).
/// Top-level tasks are launched with `Simulator::spawn`, which detaches
/// them and lets the frame self-destroy on completion.
template <class T>
class [[nodiscard]] Task;

namespace detail {

template <class T>
struct TaskPromise;

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <class Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    auto& p = h.promise();
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  [[nodiscard]] static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FramePool::deallocate(p, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <class T>
struct TaskPromise : TaskPromiseBase {
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  [[nodiscard]] Task<T> get_return_object() noexcept;

  template <class U>
  void return_value(U&& v) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
    has_value = true;
  }

  ~TaskPromise() {
    if (has_value) reinterpret_cast<T*>(storage)->~T();
  }

  T take() {
    if (exception) std::rethrow_exception(exception);
    return std::move(*reinterpret_cast<T*>(storage));
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  [[nodiscard]] Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void take() {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) noexcept : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const noexcept { return h_ && h_.done(); }

  /// Releases ownership of the coroutine handle (used by Simulator::spawn).
  [[nodiscard]] handle_type release() noexcept { return std::exchange(h_, {}); }

  // --- awaitable interface ----------------------------------------------
  bool await_ready() const noexcept { return !h_ || h_.done(); }

  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;  // start (or resume into) the child task
  }

  T await_resume() { return h_.promise().take(); }

 private:
  handle_type h_{};
};

namespace detail {

template <class T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>{std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace mutsvc::sim
