#include "workload/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mutsvc::workload {

RateEnvelope::RateEnvelope(std::vector<RateStep> steps, sim::Duration period)
    : steps_(std::move(steps)), period_(period) {
  if (steps_.empty()) throw std::invalid_argument("RateEnvelope: no steps");
  if (steps_.front().offset != sim::Duration::zero()) {
    throw std::invalid_argument("RateEnvelope: first step must start at offset zero");
  }
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].rate_per_sec < 0.0) {
      throw std::invalid_argument("RateEnvelope: negative rate");
    }
    if (i > 0 && steps_[i].offset <= steps_[i - 1].offset) {
      throw std::invalid_argument("RateEnvelope: step offsets must be strictly increasing");
    }
  }
  if (periodic()) {
    if (steps_.back().offset >= period_) {
      throw std::invalid_argument("RateEnvelope: steps must fit inside the period");
    }
    full_cycle_integral_ = cycle_integral_to(period_);
  }
}

RateEnvelope RateEnvelope::constant(double rate_per_sec) {
  return steps({{sim::Duration::zero(), rate_per_sec}});
}

RateEnvelope RateEnvelope::steps(std::vector<RateStep> s) {
  return RateEnvelope{std::move(s), sim::Duration::zero()};
}

RateEnvelope RateEnvelope::flash_crowd(double base, double spike_multiplier,
                                       sim::Duration spike_at, sim::Duration spike_len) {
  if (spike_at <= sim::Duration::zero() || spike_len <= sim::Duration::zero()) {
    throw std::invalid_argument("RateEnvelope::flash_crowd: spike must start after zero");
  }
  return steps({{sim::Duration::zero(), base},
                {spike_at, base * spike_multiplier},
                {spike_at + spike_len, base}});
}

RateEnvelope RateEnvelope::diurnal(double trough, double peak, sim::Duration period,
                                   int buckets) {
  if (buckets < 2) throw std::invalid_argument("RateEnvelope::diurnal: need >= 2 buckets");
  if (period <= sim::Duration::zero()) {
    throw std::invalid_argument("RateEnvelope::diurnal: period must be positive");
  }
  const double mid = (trough + peak) / 2.0;
  const double amp = (peak - trough) / 2.0;
  std::vector<RateStep> s;
  s.reserve(static_cast<std::size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    // Sample the sinusoid at the bucket midpoint; phase puts the trough at
    // offset 0 and the peak half a period in.
    const double frac = (static_cast<double>(i) + 0.5) / static_cast<double>(buckets);
    const double rate = mid - amp * std::cos(2.0 * std::numbers::pi * frac);
    s.push_back({period * (static_cast<double>(i) / static_cast<double>(buckets)), rate});
  }
  return RateEnvelope{std::move(s), period};
}

double RateEnvelope::rate_at(sim::Duration offset) const {
  if (steps_.empty() || offset < sim::Duration::zero()) return 0.0;
  sim::Duration t = offset;
  if (periodic()) {
    t = sim::Duration::micros(offset.count_micros() % period_.count_micros());
  }
  // Last step whose offset <= t.
  auto it = std::upper_bound(steps_.begin(), steps_.end(), t,
                             [](sim::Duration v, const RateStep& s) { return v < s.offset; });
  return std::prev(it)->rate_per_sec;
}

double RateEnvelope::max_rate() const {
  double m = 0.0;
  for (const RateStep& s : steps_) m = std::max(m, s.rate_per_sec);
  return m;
}

double RateEnvelope::cycle_integral_to(sim::Duration t) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const sim::Duration lo = steps_[i].offset;
    if (t <= lo) break;
    sim::Duration hi = i + 1 < steps_.size() ? steps_[i + 1].offset : t;
    if (periodic() && i + 1 == steps_.size()) hi = period_;
    hi = std::min(hi, t);
    acc += steps_[i].rate_per_sec * (hi - lo).as_seconds();
  }
  return acc;
}

double RateEnvelope::expected_count(sim::Duration a, sim::Duration b) const {
  if (steps_.empty() || b <= a) return 0.0;
  a = std::max(a, sim::Duration::zero());
  auto integral_to = [this](sim::Duration t) {
    if (!periodic()) return cycle_integral_to(t);
    const std::int64_t p = period_.count_micros();
    const std::int64_t full = t.count_micros() / p;
    const sim::Duration rem = sim::Duration::micros(t.count_micros() % p);
    return static_cast<double>(full) * full_cycle_integral_ + cycle_integral_to(rem);
  };
  return integral_to(b) - integral_to(a);
}

RateEnvelope RateEnvelope::scaled(double k) const {
  if (k < 0.0) throw std::invalid_argument("RateEnvelope::scaled: negative factor");
  if (steps_.empty()) return {};
  std::vector<RateStep> s = steps_;
  for (RateStep& step : s) step.rate_per_sec *= k;
  return RateEnvelope{std::move(s), period_};
}

RateEnvelope RateEnvelope::shifted(sim::Duration phase) const {
  if (steps_.empty()) return {};
  if (!periodic()) {
    throw std::invalid_argument("RateEnvelope::shifted: periodic envelopes only");
  }
  const std::int64_t p = period_.count_micros();
  // Normalize into [0, p): shifting by the period (or zero) is the identity.
  const std::int64_t shift = ((phase.count_micros() % p) + p) % p;
  if (shift == 0) return *this;
  std::vector<RateStep> s;
  s.reserve(steps_.size() + 1);
  for (const RateStep& step : steps_) {
    const std::int64_t at = (step.offset.count_micros() + shift) % p;
    s.push_back({sim::Duration::micros(at), step.rate_per_sec});
  }
  std::sort(s.begin(), s.end(),
            [](const RateStep& a, const RateStep& b) { return a.offset < b.offset; });
  if (s.front().offset != sim::Duration::zero()) {
    // The segment straddling the wrap point: whatever rate was active at
    // old-time (period - shift) now covers offset zero.
    s.insert(s.begin(),
             {sim::Duration::zero(), rate_at(sim::Duration::micros(p - shift))});
  }
  return RateEnvelope{std::move(s), period_};
}

std::optional<sim::Duration> RateEnvelope::next_boundary_after(sim::Duration offset) const {
  if (steps_.empty()) return std::nullopt;
  if (offset < sim::Duration::zero()) return sim::Duration::zero();
  if (!periodic()) {
    auto it = std::upper_bound(steps_.begin(), steps_.end(), offset,
                               [](sim::Duration v, const RateStep& s) { return v < s.offset; });
    if (it == steps_.end()) return std::nullopt;  // last rate holds forever
    return it->offset;
  }
  const std::int64_t p = period_.count_micros();
  const sim::Duration rem = sim::Duration::micros(offset.count_micros() % p);
  auto it = std::upper_bound(steps_.begin(), steps_.end(), rem,
                             [](sim::Duration v, const RateStep& s) { return v < s.offset; });
  const sim::Duration next_in_cycle = it == steps_.end() ? period_ : it->offset;
  return offset + (next_in_cycle - rem);
}

std::optional<sim::Duration> PoissonProcess::next_after(sim::Duration offset,
                                                        SmallRng& rng) const {
  if (env_.empty()) return std::nullopt;
  sim::Duration t = std::max(offset, sim::Duration::zero());
  // Bounded only as a safety net: each iteration either returns or advances
  // to the next rate boundary, and real envelopes have few boundaries per
  // arrival.
  for (int guard = 0; guard < 1'000'000; ++guard) {
    const double rate = env_.rate_at(t);
    const std::optional<sim::Duration> boundary = env_.next_boundary_after(t);
    if (rate <= 0.0) {
      if (!boundary) return std::nullopt;  // zero rate forever: process over
      t = *boundary;
      continue;
    }
    // Clamp the gap to the clock resolution so the process always advances.
    const sim::Duration gap =
        std::max(sim::Duration::seconds(rng.exponential(1.0 / rate)), sim::us(1));
    const sim::Duration candidate = t + gap;
    if (boundary && candidate >= *boundary) {
      // Crossed into the next segment: restart there (exact by
      // memorylessness of the exponential).
      t = *boundary;
      continue;
    }
    return candidate;
  }
  return std::nullopt;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: empty support");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: negative exponent");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::rank_of(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::expected_freq(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  const double lo = rank == 0 ? 0.0 : cdf_[rank - 1];
  return cdf_[rank] - lo;
}

}  // namespace mutsvc::workload
