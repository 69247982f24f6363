#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>

namespace mutsvc::sim::detail {

/// Per-thread free lists for coroutine frames, behind the class-level
/// `operator new` / `operator delete` of both promise types in the tree
/// (`Task`'s and `Simulator::spawn`'s detached root), so every coroutine
/// frame comes from here.
///
/// One LIFO list per 64-byte size class up to 4 KiB. A miss takes one block
/// from `::operator new`; a larger frame goes straight to the global heap.
/// A thread's blocks go back to the heap when the thread exits
/// (`core::sweep` starts and joins its workers on every call). While on a
/// list a block is poisoned for AddressSanitizer, so resuming a destroyed
/// frame still reports; without ASan the poisoning compiles to nothing.
/// No simulation result depends on a frame's address, so where a frame
/// comes from cannot move an event (DESIGN §10, "Frames from a per-thread
/// pool").
class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 64;
  static constexpr std::size_t kLargestPooledBytes = kClassBytes * kClasses;

  [[nodiscard]] static void* allocate(std::size_t bytes) {
    if (!pooled(bytes)) return ::operator new(bytes);
    const std::size_t c = size_class(bytes);
    Block* b = free_[c];
    if (b == nullptr) return refill(c);
    ASAN_UNPOISON_MEMORY_REGION(b, block_bytes(c));
    free_[c] = b->next;
    return b;
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (!pooled(bytes)) {
      ::operator delete(p, bytes);
      return;
    }
    const std::size_t c = size_class(bytes);
    free_[c] = ::new (p) Block{free_[c]};
    ASAN_POISON_MEMORY_REGION(p, block_bytes(c));
  }

 private:
  struct Block {
    Block* next;
  };
  struct Reaper;

  static constexpr bool pooled(std::size_t bytes) {
    return bytes != 0 && bytes <= kLargestPooledBytes;
  }
  static constexpr std::size_t size_class(std::size_t bytes) { return (bytes - 1) / kClassBytes; }
  static constexpr std::size_t block_bytes(std::size_t c) { return (c + 1) * kClassBytes; }

  /// The miss path: one block from the heap. The first miss on a thread
  /// also arms the return of the thread's blocks at thread exit.
  static void* refill(std::size_t c);

  static inline thread_local Block* free_[kClasses] = {};
};

}  // namespace mutsvc::sim::detail
