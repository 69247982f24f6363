#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mutsvc::workload {

/// Compact counter-based random stream for the million-session FSM load
/// engine (DESIGN §16): the whole generator is one 64-bit word (a splitmix64
/// counter), so a million sessions carry a million words instead of a
/// million full-size engines. Like sim::RngStream::fork, streams are pure
/// functions of (seed, stream index / name) — independent of creation order
/// and of draws made on any other stream.
class SmallRng {
 public:
  explicit constexpr SmallRng(std::uint64_t state) : state_(state) {}

  /// splitmix64 finalizer: a bijective avalanche mix on 64 bits.
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Seed for the `stream`-th independent stream under `seed` — a pure
  /// function of its arguments, so per-session streams don't depend on the
  /// order sessions are created in.
  [[nodiscard]] static constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                                           std::uint64_t stream) {
    return mix(seed ^ mix(stream));
  }

  /// Named variant (FNV-1a over the name, like RngStream::fork).
  [[nodiscard]] static std::uint64_t named_seed(std::uint64_t seed, std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
    for (char c : name) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    return mix(h);
  }

  [[nodiscard]] std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive. The modulo bias is below 2^-32
  /// for every range this simulation uses — irrelevant next to model error,
  /// and the fixed algorithm keeps draws bit-reproducible everywhere.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform01() < p; }

  /// Exponential with the given mean (inverse-CDF; uniform01() < 1 keeps
  /// the log argument positive).
  [[nodiscard]] double exponential(double mean) {
    double u = uniform01();
    return -mean * std::log(1.0 - u);
  }

  /// Index in [0, weights.size()) with probability proportional to weight.
  /// Same contract as RngStream::weighted_index, one uniform01() draw.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double r = uniform01() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  [[nodiscard]] constexpr std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// One constant-rate segment of a rate envelope, starting at `offset` from
/// the envelope origin.
struct RateStep {
  sim::Duration offset;
  double rate_per_sec = 0.0;
};

/// Piecewise-constant arrival-rate envelope: the intensity function of a
/// nonhomogeneous Poisson arrival process. An aperiodic envelope holds its
/// last rate forever; a periodic one (diurnal curves) repeats its cycle.
class RateEnvelope {
 public:
  /// Empty envelope: rate zero everywhere (no arrivals).
  RateEnvelope() = default;

  [[nodiscard]] static RateEnvelope constant(double rate_per_sec);
  /// Aperiodic step sequence. Steps must start at offset zero, be strictly
  /// increasing, and carry non-negative rates; the last rate holds forever.
  [[nodiscard]] static RateEnvelope steps(std::vector<RateStep> steps);
  /// Flash-crowd shape (bench_scaling_sessions' flash10x cell,
  /// session_fsm_test): `base` rate, spiking to `base * spike_multiplier`
  /// during [spike_at, spike_at + spike_len).
  [[nodiscard]] static RateEnvelope flash_crowd(double base, double spike_multiplier,
                                                sim::Duration spike_at,
                                                sim::Duration spike_len);
  /// Periodic diurnal curve: a sinusoid between `trough` and `peak` over
  /// `period`, sampled into `buckets` constant steps (trough at offset 0).
  [[nodiscard]] static RateEnvelope diurnal(double trough, double peak, sim::Duration period,
                                            int buckets = 24);

  [[nodiscard]] bool empty() const { return steps_.empty(); }
  [[nodiscard]] bool periodic() const { return period_ > sim::Duration::zero(); }
  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] const std::vector<RateStep>& step_list() const { return steps_; }

  /// Instantaneous rate at `offset` from the envelope origin.
  [[nodiscard]] double rate_at(sim::Duration offset) const;
  [[nodiscard]] double max_rate() const;

  /// Expected arrivals in [a, b): the integral of the rate over the window.
  [[nodiscard]] double expected_count(sim::Duration a, sim::Duration b) const;

  /// Same shape with every rate multiplied by `k` (splitting one envelope
  /// across client groups and session kinds).
  [[nodiscard]] RateEnvelope scaled(double k) const;

  /// Same periodic shape phase-shifted by `phase` (antiphase diurnal
  /// curves: clients in the other hemisphere peak half a period later).
  /// Periodic envelopes only — an aperiodic shift would need to invent a
  /// rate before the first step.
  [[nodiscard]] RateEnvelope shifted(sim::Duration phase) const;

  /// Next boundary strictly after `offset` where the rate changes (step
  /// edges and period wraps); nullopt when the rate is constant from
  /// `offset` on.
  [[nodiscard]] std::optional<sim::Duration> next_boundary_after(sim::Duration offset) const;

 private:
  RateEnvelope(std::vector<RateStep> steps, sim::Duration period);

  /// Integral of the rate over [0, t) for t within one cycle (aperiodic:
  /// any t).
  [[nodiscard]] double cycle_integral_to(sim::Duration t) const;

  std::vector<RateStep> steps_;
  sim::Duration period_ = sim::Duration::zero();  // zero = aperiodic
  double full_cycle_integral_ = 0.0;              // cached for periodic envelopes
};

/// Samples a nonhomogeneous Poisson process driven by a RateEnvelope.
/// Piecewise-exponential redraw: draw an exponential gap at the current
/// segment's rate; if it crosses a rate boundary, restart from the boundary
/// (memorylessness makes the restart exact, no thinning required).
class PoissonProcess {
 public:
  explicit PoissonProcess(RateEnvelope envelope) : env_(std::move(envelope)) {}

  [[nodiscard]] const RateEnvelope& envelope() const { return env_; }

  /// Offset of the next arrival strictly after `offset`; nullopt when the
  /// rate is zero forever after (the process has ended).
  [[nodiscard]] std::optional<sim::Duration> next_after(sim::Duration offset,
                                                        SmallRng& rng) const;

 private:
  RateEnvelope env_;
};

/// Zipf(s) sampler over ranks [0, n): P(rank k) proportional to 1/(k+1)^s.
/// Built once per model (a cumulative table), shared by every session.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return s_; }

  /// Rank in [0, n), inverse-CDF over one uniform01() draw of any rng type
  /// (the step functions of DESIGN §16 are generic over it).
  template <class Rng>
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    return rank_of(rng.uniform01());
  }

  /// Closed-form P(rank k) — what sampled frequencies must converge to.
  [[nodiscard]] double expected_freq(std::size_t rank) const;

 private:
  [[nodiscard]] std::size_t rank_of(double u) const;

  std::vector<double> cdf_;  // cumulative, normalized to end at 1.0
  double s_ = 0.0;
};

}  // namespace mutsvc::workload
