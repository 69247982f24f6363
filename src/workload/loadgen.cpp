#include "workload/loadgen.hpp"

#include <algorithm>
#include <cmath>

#include "workload/arrivals.hpp"

namespace mutsvc::workload {

LoadGenerator::ClientSplit LoadGenerator::split_clients(double requests_per_second,
                                                        double browser_fraction,
                                                        sim::Duration think_time) {
  // Closed-loop sizing: each client issues ~1/think_time requests per second,
  // so the group needs round(rate*think_time) concurrent clients in total.
  // Round the total first, then carve the browser share out of it — see
  // the ClientSplit doc for why the shares are not rounded independently.
  const double think_s = think_time.as_seconds();
  ClientSplit split;
  int total = static_cast<int>(std::lround(requests_per_second * think_s));
  if (total < 1 && requests_per_second > 0.0) total = 1;
  if (total == 1) {
    // A single client goes to whichever kind holds the majority share.
    split.browsers = browser_fraction >= 0.5 ? 1 : 0;
  } else {
    split.browsers = static_cast<int>(
        std::lround(requests_per_second * browser_fraction * think_s));
    split.browsers = std::clamp(split.browsers, 0, total);
  }
  split.writers = total - split.browsers;
  return split;
}

void LoadGenerator::start_group(const ClientGroupSpec& spec, sim::SimTime end_at,
                                sim::RngStream rng) {
  const ClientSplit split =
      split_clients(spec.requests_per_second, spec.browser_fraction, cfg_.think_time);
  const int browsers = split.browsers;
  const int writers = split.writers;

  for (int i = 0; i < browsers; ++i) {
    sim_.spawn(run_client(spec, /*is_browser=*/true, end_at,
                          rng.fork("browser-" + std::to_string(i))));
  }
  for (int i = 0; i < writers; ++i) {
    sim_.spawn(run_client(spec, /*is_browser=*/false, end_at,
                          rng.fork("writer-" + std::to_string(i))));
  }
}

void LoadGenerator::record_outcome(const ClientGroupSpec& spec, const PageRequest& req,
                                   RequestOutcome outcome, sim::Duration response_time) {
  ++completed_;
  const sim::SimTime now = sim_.now();
  switch (outcome) {
    case RequestOutcome::kOk:
      collector_.record(now, req.page, req.pattern, spec.group, response_time);
      break;
    case RequestOutcome::kFailed:
      collector_.record_failure(now, req.page, req.pattern, spec.group);
      break;
    case RequestOutcome::kRejected:
      collector_.record_rejection(now, req.page, req.pattern, spec.group);
      break;
  }
}

sim::Task<void> LoadGenerator::run_client(ClientGroupSpec spec, bool is_browser,
                                          sim::SimTime end_at, sim::RngStream rng) {
  // Stagger client start uniformly across one think interval so the fleet
  // does not fire in lock-step.
  co_await sim_.wait(sim::Duration::seconds(rng.uniform(0.0, cfg_.think_time.as_seconds())));

  while (sim_.now() < end_at) {
    auto script = is_browser ? spec.browser_factory() : spec.writer_factory();
    // Session routing key: a mixed session ordinal, sticky for every page
    // of this session. No RNG draw, so the request trajectory is untouched.
    const std::uint64_t session_key =
        SmallRng::mix(++sessions_);
    while (auto req = script->next()) {
      if (sim_.now() >= end_at) co_return;
      req->session_key = session_key;
      const sim::SimTime start = sim_.now();
      ++requests_;  // counted at issue time
      const RequestOutcome out = co_await executor_.execute(spec.client_node, *req);
      const sim::Duration response_time = sim_.now() - start;
      record_outcome(spec, *req, out, response_time);
      // Soft delay (§3.3): DELAY - response_time, so DELAY is the interval
      // between *sending* successive requests.
      const sim::Duration remaining = cfg_.think_time - response_time;
      if (remaining > sim::Duration::zero()) co_await sim_.wait(remaining);
    }
    co_await sim_.wait(cfg_.between_sessions);
  }
}

}  // namespace mutsvc::workload
