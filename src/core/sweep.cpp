#include "core/sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "sim/simcheck.hpp"

namespace mutsvc::core::sweep {

std::size_t configured_jobs() {
  // Host introspection for a worker-pool size, not simulation state.
  // simlint:allow(sim-shared-across-threads)
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t fallback = hc > 0 ? hc : 1;
  const char* env = std::getenv("MUTSVC_JOBS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return fallback;
  return static_cast<std::size_t>(v);
}

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t jobs) {
  if (n == 0) return;
  if (jobs == 0) jobs = configured_jobs();

  std::vector<std::exception_ptr> errors(n);
  auto run_one = [&](std::size_t i) {
    // Per-trial sanitizer reset: findings are trial-scoped, and a sanitized
    // trial behaves identically whichever worker (or the inline path) runs
    // it. Hard violations still throw and are captured like any failure.
    simcheck::reset();
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // Share-nothing fan-out: workers claim the next unstarted index from an
    // atomic ticket; results land in index-addressed slots, so merge order
    // equals submission order regardless of scheduling.
    // simlint:allow(sim-shared-across-threads)
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const std::size_t workers = jobs < n ? jobs : n;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          run_one(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  // The pool drained fully; surface the lowest-index failure so the caller
  // sees a deterministic error regardless of worker interleaving.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace mutsvc::core::sweep
