#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <exception>

#include "sim/frame_pool.hpp"

namespace mutsvc::sim {

namespace {

/// Eager, self-destroying root coroutine used by Simulator::spawn.
struct DetachedTask {
  struct promise_type {
    [[nodiscard]] static void* operator new(std::size_t bytes) {
      return detail::FramePool::allocate(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      detail::FramePool::deallocate(p, bytes);
    }

    DetachedTask get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mutsvc: exception escaped detached task: %s\n", e.what());
      } catch (...) {
        std::fprintf(stderr, "mutsvc: unknown exception escaped detached task\n");
      }
      std::terminate();
    }
  };
};

DetachedTask run_detached(Task<void> task) { co_await std::move(task); }

constexpr std::uintptr_t kResumeBit = 1;

/// Capacity each bucket gets up front, so a run whose clock first reaches
/// a higher bit does not allocate in its steady state.
constexpr std::size_t kBucketReserve = 64;

/// Radix-heap bucket of time `at` relative to `base` (at >= base): 0 when
/// equal, else one more than the index of the highest bit they differ in.
std::size_t bucket_of(SimTime at, SimTime base) {
  return static_cast<std::size_t>(std::bit_width(
      static_cast<std::uint64_t>(at.count_micros() ^ base.count_micros())));
}

}  // namespace

Simulator::Simulator(std::uint64_t seed) : next_seq_(1, 0), rng_(seed) {
  for (auto& bucket : buckets_) bucket.reserve(kBucketReserve);
}

Simulator::DomainScope::DomainScope(Simulator& sim, DomainId d)
    : sim_(sim), prev_(sim.current_domain_) {
  if (sim.domain_count_ > 0 && d >= sim.domain_count_) {
    throw std::out_of_range("Simulator::DomainScope: domain out of range");
  }
  sim.current_domain_ = d;
}

void Simulator::enable_domains(std::uint32_t count) {
  if (count == 0 || count > 256) {
    throw std::invalid_argument("Simulator: domain count must be in [1, 256]");
  }
  if (domain_count_ > 0) throw std::logic_error("Simulator: domains already enabled");
  if (pending_ > 0 || executed_ > 0) {
    throw std::logic_error("Simulator: enable domains before scheduling events");
  }
  domain_count_ = count;
  next_seq_.assign(count, 0);
}

std::uint64_t Simulator::next_key(DomainId target, DomainId owner) {
  if (domain_count_ == 0) return next_seq_[0]++;
  return (static_cast<std::uint64_t>(target) << 56) |
         (static_cast<std::uint64_t>(owner) << 48) | next_seq_[owner]++;
}

inline void Simulator::place(SimTime at, std::uint64_t key, std::uintptr_t payload) {
  const std::size_t b = bucket_of(at, base_);
  std::vector<Node>& bucket = buckets_[b];
  bucket.push_back(Node{at, key, payload});
  if (b != 0) {
    occupied_ |= std::uint64_t{1} << b;
  } else if (bucket.size() > 1) {
    std::push_heap(bucket.begin(), bucket.end(), KeyOrder{});
  }
}

void Simulator::push_event(SimTime at, std::uint64_t key, std::uintptr_t payload) {
  place(at, key, payload);
  ++pending_;
}

bool Simulator::pop_next(SimTime until, Node& out) {
  std::vector<Node>& due = buckets_[0];
  if (due.empty()) {
    if (occupied_ == 0) return false;
    const auto b = static_cast<std::size_t>(std::countr_zero(occupied_));
    const std::uint64_t bit = std::uint64_t{1} << b;
    std::vector<Node>& from = buckets_[b];
    // Never move the base past `until`: the caller may then schedule
    // between `until` and this bucket's earliest event.
    if (from.size() == 1) {  // the usual case: the lone event is the next one
      if (from.front().at > until) return false;
      out = from.front();
      from.clear();
      occupied_ &= ~bit;
      base_ = out.at;
      return true;
    }
    SimTime earliest = SimTime::max();
    for (const Node& node : from) earliest = std::min(earliest, node.at);
    if (earliest > until) return false;
    base_ = earliest;
    for (const Node& node : from) place(node.at, node.key, node.payload);  // all land below b
    from.clear();
    occupied_ &= ~bit;
  } else if (base_ > until) {
    return false;
  }
  std::pop_heap(due.begin(), due.end(), KeyOrder{});
  out = due.back();
  due.pop_back();
  return true;
}

std::uintptr_t Simulator::make_slot(EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  return static_cast<std::uintptr_t>(slot) << 1;
}

void Simulator::schedule_at(SimTime at, EventFn fn) {
  if (at < now_) at = now_;
  const std::uint64_t key = next_key(current_domain_, current_domain_);
  push_event(at, key, make_slot(std::move(fn)));
}

void Simulator::schedule_resume_at(SimTime at, std::coroutine_handle<> h) {
  if (at < now_) at = now_;
  push_event(at, next_key(current_domain_, current_domain_),
             reinterpret_cast<std::uintptr_t>(h.address()) | kResumeBit);
}

void Simulator::schedule_resume_in(DomainId dest, Duration d, std::coroutine_handle<> h) {
  if (domain_count_ == 0) {  // bare simulator: no domains to cross
    schedule_resume_after(d, h);
    return;
  }
  if (dest >= domain_count_) {
    throw std::out_of_range("Simulator::wait_in: destination domain out of range");
  }
  SimTime at = now_ + d;
  if (at < now_) at = now_;
  push_event(at, next_key(dest, current_domain_),
             reinterpret_cast<std::uintptr_t>(h.address()) | kResumeBit);
}

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  run_detached(std::move(task));
}

void Simulator::dispatch(const Node& node) {
  if (node.payload & kResumeBit) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(node.payload & ~kResumeBit))
        .resume();
    return;
  }
  // Move the callable out and recycle its slot before invoking: the
  // handler may schedule new events into the slab.
  const auto slot = static_cast<std::uint32_t>(node.payload >> 1);
  EventFn fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  fn();
}

std::size_t Simulator::run_until(SimTime until) {
  const std::size_t before = executed_;
  const DomainId prev_domain = current_domain_;
  const bool tagged = domain_count_ > 0;
  Node node{};
  while (pop_next(until, node)) {
    --pending_;
    now_ = node.at;
    if (tagged) current_domain_ = static_cast<DomainId>(node.key >> 56);
    dispatch(node);
    ++executed_;
  }
  current_domain_ = prev_domain;
  if (until != SimTime::max() && now_ < until) now_ = until;
  return executed_ - before;
}

}  // namespace mutsvc::sim
