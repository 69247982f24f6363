#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace mutsvc::core::sweep {

/// Worker count for parallel trial execution: MUTSVC_JOBS when it parses as
/// a positive integer, else the host's core count (min 1). Benches record
/// it next to their wall metrics so speedups are interpretable.
[[nodiscard]] std::size_t configured_jobs();

/// Runs `body(0) .. body(n-1)`, each exactly once, across `jobs` worker
/// threads (0 = configured_jobs(); 1 = inline serial path, no threads).
///
/// Trials must be share-nothing: each owns its Simulator, testbed, and
/// collectors, so results are byte-identical at any job count. SimCheck's
/// thread-local registry is reset at the start of every trial, making a
/// sanitized trial's findings independent of which worker ran it.
///
/// A throwing trial never deadlocks the pool or skips other trials: every
/// index runs, exceptions are captured per slot, and after the pool drains
/// the lowest-index exception is rethrown.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t jobs = 0);

/// Runs every trial callable and returns their results merged in submission
/// order (index-addressed slots — identical to a serial loop at any job
/// count). `T` must be default-constructible and move-assignable.
template <class T>
[[nodiscard]] std::vector<T> run_trials(std::vector<std::function<T()>> trials,
                                        std::size_t jobs = 0) {
  std::vector<T> out(trials.size());
  run_indexed(
      trials.size(), [&](std::size_t i) { out[i] = trials[i](); }, jobs);
  return out;
}

}  // namespace mutsvc::core::sweep
