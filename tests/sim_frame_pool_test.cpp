// The coroutine frame pool (sim/frame_pool.hpp): steady-state coroutines
// make no heap allocation, frames above the largest size class go to the
// heap, a thread's frames go back to the heap when it exits, and a frame on
// a free list is poisoned under AddressSanitizer.
//
// This binary replaces global `operator new` / `operator delete` with
// counters, as bench_kernel does, so the counters stay out of every other
// test binary.
#include "sim/frame_pool.hpp"

#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <array>
#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_deallocations{0};

}  // namespace

// Out of line, so GCC never sees `malloc` meet `operator delete` or `new`
// meet `free` and warn (-Wmismatched-new-delete): the pair is matched.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

namespace mutsvc::sim {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

[[nodiscard]] Task<int> served(Simulator& sim, FifoResource& cpu, int i) {
  co_await cpu.consume(us(30));
  co_await sim.wait(us(70));
  co_return i;
}

[[nodiscard]] Task<void> serve_loop(Simulator& sim, FifoResource& cpu, int iterations,
                                    std::int64_t* sum) {
  for (int i = 0; i < iterations; ++i) *sum += co_await served(sim, cpu, i);
}

TEST(FramePoolTest, SteadyStateCoroutinesAllocateNothing) {
  constexpr int kIterations = 2000;
  Simulator sim(1);
  FifoResource cpu_a(sim, 1, "a");
  FifoResource cpu_b(sim, 1, "b");
  std::int64_t sum_a = 0;
  std::int64_t sum_b = 0;
  sim.spawn(serve_loop(sim, cpu_a, kIterations, &sum_a));
  sim.spawn(serve_loop(sim, cpu_b, kIterations, &sum_b));

  // Warm-up: a few iterations fill the free lists and the event heap.
  sim.run_until(SimTime::origin() + ms(1));
  const std::uint64_t before = allocations();
  sim.run_until();
  const std::uint64_t steady = allocations() - before;

  const std::int64_t expected = std::int64_t{kIterations} * (kIterations - 1) / 2;
  EXPECT_EQ(sum_a, expected);
  EXPECT_EQ(sum_b, expected);
  EXPECT_EQ(sim.now(), SimTime::origin() + us(100) * kIterations);
  EXPECT_EQ(steady, 0u) << "a steady-state coroutine frame came from the heap";
}

[[nodiscard]] Task<int> small(Simulator& sim) {
  co_await sim.wait(us(1));
  co_return 1;
}

[[nodiscard]] Task<int> oversized(Simulator& sim) {
  std::array<char, 8192> buf{};
  buf.front() = 1;
  co_await sim.wait(us(1));  // `buf` is live across the suspension: it is in the frame
  buf.back() = 2;
  co_return buf.front() + buf.back();
}

/// Awaits each of two tasks made by `make` in turn, recording its value
/// and the `operator new` calls it made.
template <class Make>
[[nodiscard]] Task<void> twice(Make make, std::array<int, 2>* values,
                               std::array<std::uint64_t, 2>* calls) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t before = allocations();
    (*values)[i] = co_await make();
    (*calls)[i] = allocations() - before;
  }
}

TEST(FramePoolTest, OversizedFrameBypassesThePool) {
  Simulator sim(1);
  std::array<int, 2> small_values{};
  std::array<std::uint64_t, 2> small_calls{};
  std::array<int, 2> big_values{};
  std::array<std::uint64_t, 2> big_calls{};
  // One after the other, so neither count sees the other's frames.
  sim.spawn(twice([&sim] { return small(sim); }, &small_values, &small_calls));
  sim.run_until();
  sim.spawn(twice([&sim] { return oversized(sim); }, &big_values, &big_calls));
  sim.run_until();

  EXPECT_EQ(small_values, (std::array<int, 2>{1, 1}));
  EXPECT_EQ(big_values, (std::array<int, 2>{3, 3}));
  // The second small frame reuses the first one's block; every oversized
  // frame is a fresh heap allocation.
  EXPECT_EQ(small_calls[1], 0u);
  EXPECT_EQ(big_calls[0], 1u);
  EXPECT_EQ(big_calls[1], 1u);
}

[[nodiscard]] Task<int> answer() { co_return 42; }

TEST(FramePoolTest, ThreadExitReturnsTheThreadsFrames) {
  constexpr std::size_t kFrames = 8;
  std::uint64_t deallocations_at_body_end = 0;
  // The worker makes frames only; no Simulator crosses threads.
  // simlint:allow(sim-shared-across-threads)
  std::thread worker([&deallocations_at_body_end] {
    std::vector<std::coroutine_handle<>> frames;
    frames.reserve(kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) frames.push_back(answer().release());
    for (std::coroutine_handle<> h : frames) h.destroy();  // onto the thread's free list
    deallocations_at_body_end = g_deallocations.load(std::memory_order_relaxed);
  });
  worker.join();
  // The pool's thread-exit return hands all kFrames blocks back to the
  // heap; the handle vector and std::thread's own state add two more.
  EXPECT_GE(g_deallocations.load(std::memory_order_relaxed) - deallocations_at_body_end,
            kFrames);
}

TEST(FramePoolTest, DestroyedFrameIsPoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  const std::coroutine_handle<> first = answer().release();
  void* const frame = first.address();
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  first.destroy();
  EXPECT_TRUE(__asan_address_is_poisoned(frame));

  const std::coroutine_handle<> second = answer().release();
  EXPECT_EQ(second.address(), frame);  // LIFO reuse of the same size class
  EXPECT_FALSE(__asan_address_is_poisoned(second.address()));
  second.destroy();
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

}  // namespace
}  // namespace mutsvc::sim
