#include "workload/session_fsm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mutsvc::workload {

SessionFsmEngine::SessionFsmEngine(sim::Simulator& sim, RequestExecutor& executor,
                                   stats::ResponseTimeCollector& collector, Config cfg)
    : sim_(sim), executor_(executor), collector_(collector), cfg_(cfg) {
  if (cfg_.calendar_quantum <= sim::Duration::zero()) {
    throw std::invalid_argument("SessionFsmEngine: calendar_quantum must be positive");
  }
  if (cfg_.think_time <= sim::Duration::zero()) {
    throw std::invalid_argument("SessionFsmEngine: think_time must be positive");
  }
}

SessionFsmEngine::SessionFsmEngine(sim::Simulator& sim, RequestExecutor& executor,
                                   stats::ResponseTimeCollector& collector)
    : SessionFsmEngine(sim, executor, collector, Config{}) {}

std::uint8_t SessionFsmEngine::add_kind(std::shared_ptr<const FsmScriptModel> model,
                                        net::NodeId client_node, stats::ClientGroup group) {
  if (started_) throw std::logic_error("SessionFsmEngine: add kinds before starting load");
  if (model == nullptr) throw std::invalid_argument("SessionFsmEngine: null script model");
  if (kinds_.size() >= 255) throw std::invalid_argument("SessionFsmEngine: too many kinds");
  kinds_.push_back(Kind{std::move(model), client_node, group});
  return static_cast<std::uint8_t>(kinds_.size() - 1);
}

void SessionFsmEngine::set_end(sim::SimTime end_at) {
  if (started_ && end_at != end_at_) {
    throw std::invalid_argument("SessionFsmEngine: all load sources must share one end_at");
  }
  end_at_ = end_at;
  started_ = true;
}

std::uint32_t SessionFsmEngine::alloc_session(std::uint8_t kind, std::uint64_t rng_seed,
                                              Mode mode) {
  std::uint32_t id = 0;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  SessionRecord& rec = arena_[id];
  rec = SessionRecord{};
  rec.rng_state = rng_seed;
  rec.kind = kind;
  rec.mode = static_cast<std::uint8_t>(mode);
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  return id;
}

void SessionFsmEngine::release_session(std::uint32_t id) {
  free_ids_.push_back(id);
  --live_;
}

void SessionFsmEngine::start_population(std::uint8_t kind, std::size_t count,
                                        sim::SimTime end_at, std::uint64_t seed) {
  if (kind >= kinds_.size()) throw std::invalid_argument("SessionFsmEngine: unknown kind");
  set_end(end_at);
  const double think_s = cfg_.think_time.as_seconds();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id =
        alloc_session(kind, SmallRng::stream_seed(seed, i), Mode::kRecurring);
    // Stagger starts uniformly across one think interval (the session's
    // first own draw), so the fleet does not fire in lock-step.
    SmallRng rng(arena_[id].rng_state);
    const sim::SimTime due = sim_.now() + sim::Duration::seconds(rng.uniform(0.0, think_s));
    arena_[id].rng_state = rng.state();
    enqueue(id, due);
  }
}

void SessionFsmEngine::start_arrivals(std::uint8_t kind, RateEnvelope envelope,
                                      sim::SimTime end_at, std::uint64_t seed) {
  if (kind >= kinds_.size()) throw std::invalid_argument("SessionFsmEngine: unknown kind");
  set_end(end_at);
  if (envelope.empty()) return;
  sim_.spawn(arrival_pump(kind, std::move(envelope), seed));
}

sim::Task<void> SessionFsmEngine::arrival_pump(std::uint8_t kind, RateEnvelope envelope,
                                               std::uint64_t seed) {
  const PoissonProcess process(std::move(envelope));
  SmallRng rng(SmallRng::stream_seed(seed, 0));
  std::uint64_t arrivals = 0;
  sim::Duration offset = sim_.now() - sim::SimTime::origin();
  for (;;) {
    const std::optional<sim::Duration> next = process.next_after(offset, rng);
    if (!next) co_return;
    offset = *next;
    const sim::SimTime at = sim::SimTime::origin() + offset;
    if (at >= end_at_) co_return;
    co_await sim_.wait(at - sim_.now());
    // Per-session streams keyed off a separate stream index space (+1) so
    // they never collide with the pump's own stream.
    const std::uint32_t id =
        alloc_session(kind, SmallRng::stream_seed(seed, ++arrivals), Mode::kOneShot);
    fire(id);
  }
}

void SessionFsmEngine::enqueue(std::uint32_t id, sim::SimTime due) {
  arena_[id].next_fire = due;
  const std::int64_t quantum = cfg_.calendar_quantum.count_micros();
  const std::int64_t bucket = due.count_micros() / quantum;
  const sim::SimTime bucket_start = sim::SimTime::from_micros(bucket * quantum);
  if (bucket_start <= sim_.now()) {
    // The bucket has already started (or `due` is in the past): a precise
    // kernel event directly.
    sim_.schedule_at(due, [this, id] { fire(id); });
    return;
  }
  auto [it, fresh] = calendar_.try_emplace(bucket);
  it->second.push_back(id);
  if (fresh) {
    sim_.schedule_at(bucket_start, [this, bucket] { drain_bucket(bucket); });
  }
}

void SessionFsmEngine::drain_bucket(std::int64_t bucket) {
  const auto it = calendar_.find(bucket);
  if (it == calendar_.end()) return;
  std::vector<std::uint32_t> due = std::move(it->second);
  calendar_.erase(it);
  // Sort by (due time, session id): the kernel sees one deterministic
  // insertion order however the bucket was filled.
  std::sort(due.begin(), due.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (arena_[a].next_fire != arena_[b].next_fire) {
      return arena_[a].next_fire < arena_[b].next_fire;
    }
    return a < b;
  });
  for (const std::uint32_t id : due) {
    sim_.schedule_at(arena_[id].next_fire, [this, id] { fire(id); });
  }
}

void SessionFsmEngine::fire(std::uint32_t id) {
  if (sim_.now() >= end_at_) {  // no request is issued at or after end_at
    release_session(id);
    return;
  }
  SessionRecord& rec = arena_[id];
  SmallRng rng(rec.rng_state);
  FsmScratch scratch{rec.w0, rec.w1};
  std::optional<PageRequest> req = kinds_[rec.kind].model->next(rec.step, scratch, rng);
  rec.rng_state = rng.state();
  rec.w0 = scratch.w0;
  rec.w1 = scratch.w1;
  if (!req) {
    finish_script(id);
    return;
  }
  ++rec.step;
  // Sticky routing key: a pure mix of the arena slot and the engine salt —
  // no RNG draw, no extra record bytes. Slot reuse re-keys one-shot
  // sessions only after the previous occupant fully left.
  req->session_key = SmallRng::mix(static_cast<std::uint64_t>(id) ^ cfg_.session_salt);
  ++requests_;  // counted at issue time
  if (rec.step == 1) ++sessions_;
  sim_.spawn(issue(id, std::move(*req), sim_.now()));
}

void SessionFsmEngine::finish_script(std::uint32_t id) {
  SessionRecord& rec = arena_[id];
  if (static_cast<Mode>(rec.mode) == Mode::kOneShot || rec.step == 0) {
    // One-shot sessions leave at script end; a script empty from step 0
    // (rec.step == 0) is sterile — retiring it keeps a zero-length
    // between_sessions from looping forever and keeps it out of
    // sessions_started.
    release_session(id);
    return;
  }
  rec.step = 0;
  rec.w0 = 0;
  rec.w1 = 0;
  const sim::SimTime next = sim_.now() + cfg_.between_sessions;
  if (next >= end_at_) {
    release_session(id);
    return;
  }
  enqueue(id, next);
}

sim::Task<void> SessionFsmEngine::issue(std::uint32_t id, PageRequest req,
                                        sim::SimTime issued_at) {
  // Copy kind fields out before the await: the arena may grow while this
  // request is in flight, so `rec` references must not be held across it.
  const Kind kind = kinds_[arena_[id].kind];
  const RequestOutcome out = co_await executor_.execute(kind.client_node, req);
  const sim::Duration response_time = sim_.now() - issued_at;
  const sim::SimTime now = sim_.now();
  switch (out) {
    case RequestOutcome::kOk:
      collector_.record(now, req.page, req.pattern, kind.group, response_time);
      break;
    case RequestOutcome::kFailed:
      collector_.record_failure(now, req.page, req.pattern, kind.group);
      break;
    case RequestOutcome::kRejected:
      collector_.record_rejection(now, req.page, req.pattern, kind.group);
      break;
  }
  ++completed_;
  // §3.3 soft delay: the next request fires think_time after this one was
  // issued, response time notwithstanding (clamped to now for slow pages).
  sim::SimTime next = issued_at + cfg_.think_time;
  if (next < sim_.now()) next = sim_.now();
  if (next >= end_at_) {
    release_session(id);
    co_return;
  }
  enqueue(id, next);
}

std::size_t SessionFsmEngine::arena_bytes() const {
  std::size_t calendar_bytes = 0;
  for (const auto& [bucket, ids] : calendar_) {
    calendar_bytes += ids.capacity() * sizeof(std::uint32_t) + 3 * sizeof(void*);
  }
  return arena_.capacity() * sizeof(SessionRecord) +
         free_ids_.capacity() * sizeof(std::uint32_t) + calendar_bytes;
}

}  // namespace mutsvc::workload
