#include "sim/frame_pool.hpp"

namespace mutsvc::sim::detail {

/// Returns every block on the thread's lists to the heap when the thread
/// exits.
struct FramePool::Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* b = free_[c]) {
        ASAN_UNPOISON_MEMORY_REGION(b, block_bytes(c));
        free_[c] = b->next;
        ::operator delete(b, block_bytes(c));
      }
    }
  }
};

void* FramePool::refill(std::size_t c) {
  [[maybe_unused]] static thread_local Reaper reaper;
  return ::operator new(block_bytes(c));
}

}  // namespace mutsvc::sim::detail
