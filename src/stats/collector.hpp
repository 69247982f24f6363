#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace mutsvc::stats {

/// Identifies a client group the way the paper's tables do.
enum class ClientGroup { kLocal, kRemote };

[[nodiscard]] inline const char* to_string(ClientGroup g) {
  return g == ClientGroup::kLocal ? "Local" : "Remote";
}

/// Collects per-(page, group) and per-(usage-pattern, group) response
/// times, excluding a warm-up window — mirroring §3.3's methodology
/// ("each test ... preceded by several minutes of system warm-up").
///
/// Each usage pattern, and each page within it, gets a dense cell the first
/// time a sample names it; a sample finds its cells by hashing the two names
/// in place, without building a key. Reports (pages(), the summaries) are
/// keyed by name.
class ResponseTimeCollector {
 public:
  explicit ResponseTimeCollector(sim::Duration warmup = sim::Duration::zero())
      : warmup_(warmup) {}

  void set_warmup(sim::Duration warmup) { warmup_ = warmup; }
  [[nodiscard]] sim::Duration warmup() const { return warmup_; }

  /// Stable key for a page within a usage pattern (the paper's tables list
  /// e.g. "Main" separately under Browser and Buyer).
  [[nodiscard]] static std::string page_key(const std::string& pattern, const std::string& page) {
    return pattern + "|" + page;
  }

  /// Records one completed page request.
  /// `pattern` is the service usage pattern (e.g. "Browser", "Buyer").
  void record(sim::SimTime completed_at, const std::string& page, const std::string& pattern,
              ClientGroup group, sim::Duration response_time) {
    if (completed_at < sim::SimTime::origin() + warmup_) {
      ++discarded_;
      return;
    }
    double ms = response_time.as_millis();
    if (observer_) observer_(ms);
    PatternCell& p = pattern_cell(pattern);
    page_cell(p, page).by_group[slot(group)].add(ms);
    p.by_group[slot(group)].add(ms);
    if (series_window_ > sim::Duration::zero()) {
      auto& ts = series_[slot(group)];
      if (ts == nullptr) ts = std::make_unique<TimeSeries>(series_window_);
      ts->add(completed_at, ms);
    }
  }

  /// Installs a hook invoked with every post-warm-up sample (milliseconds)
  /// as it is recorded — used to feed a MetricsRegistry latency histogram
  /// without the collector depending on the registry.
  void set_observer(std::function<void(double)> obs) { observer_ = std::move(obs); }

  /// Records one failed page request (availability / SLO accounting).
  /// Failures inside the warm-up window are discarded like samples.
  void record_failure(sim::SimTime at, const std::string& page, const std::string& pattern,
                      ClientGroup group) {
    (void)page;
    if (at < sim::SimTime::origin() + warmup_) {
      ++discarded_;
      return;
    }
    ++failures_;
    ++pattern_cell(pattern).failures[slot(group)];
  }

  [[nodiscard]] std::uint64_t failures() const { return failures_; }

  [[nodiscard]] std::uint64_t pattern_failures(const std::string& pattern,
                                               ClientGroup group) const {
    const PatternCell* p = find_pattern(pattern);
    return p == nullptr ? 0 : p->failures[slot(group)];
  }

  /// Records one page request refused up front by admission control — the
  /// distinct `rejected_admission` outcome. Intentional shedding, so it is
  /// counted apart from failures (which mean something broke). Rejections
  /// inside the warm-up window are discarded like samples.
  void record_rejection(sim::SimTime at, const std::string& page, const std::string& pattern,
                        ClientGroup group) {
    (void)page;
    if (at < sim::SimTime::origin() + warmup_) {
      ++discarded_;
      return;
    }
    ++rejections_;
    ++pattern_cell(pattern).rejections[slot(group)];
  }

  [[nodiscard]] std::uint64_t rejections() const { return rejections_; }

  [[nodiscard]] std::uint64_t pattern_rejections(const std::string& pattern,
                                                 ClientGroup group) const {
    const PatternCell* p = find_pattern(pattern);
    return p == nullptr ? 0 : p->rejections[slot(group)];
  }

  /// Fraction of post-warmup requests that succeeded (1.0 when idle).
  [[nodiscard]] double success_fraction() const {
    const std::size_t ok = total_samples();
    const std::uint64_t total = ok + failures_;
    return total == 0 ? 1.0 : static_cast<double>(ok) / static_cast<double>(total);
  }

  /// Enables per-group windowed time series (response time over the run);
  /// used by the failure/recovery benchmarks. Call before the run.
  void enable_timeseries(sim::Duration window) { series_window_ = window; }

  [[nodiscard]] const TimeSeries* timeseries(ClientGroup group) const {
    return series_[slot(group)].get();
  }

  /// The group's summary for one page, or null when it has no samples.
  [[nodiscard]] const Summary* page_summary(const std::string& pattern, const std::string& page,
                                            ClientGroup group) const {
    const PatternCell* p = find_pattern(pattern);
    if (p == nullptr) return nullptr;
    auto it = p->page_ids.find(page);
    if (it == p->page_ids.end()) return nullptr;
    const Summary& s = p->pages[it->second].by_group[slot(group)];
    return s.empty() ? nullptr : &s;
  }

  /// The group's summary for one usage pattern, or null when it has no
  /// samples.
  [[nodiscard]] const Summary* pattern_summary(const std::string& pattern,
                                               ClientGroup group) const {
    const PatternCell* p = find_pattern(pattern);
    if (p == nullptr) return nullptr;
    const Summary& s = p->by_group[slot(group)];
    return s.empty() ? nullptr : &s;
  }

  /// Mean in ms, or -1 if no samples (rendered as "-" by the reporters).
  [[nodiscard]] double page_mean_ms(const std::string& pattern, const std::string& page,
                                    ClientGroup group) const {
    const Summary* s = page_summary(pattern, page, group);
    return (s == nullptr || s->empty()) ? -1.0 : s->mean();
  }

  [[nodiscard]] double pattern_mean_ms(const std::string& pattern, ClientGroup group) const {
    const Summary* s = pattern_summary(pattern, group);
    return (s == nullptr || s->empty()) ? -1.0 : s->mean();
  }

  [[nodiscard]] std::size_t total_samples() const {
    std::size_t n = 0;
    for (const PatternCell& p : patterns_) {
      for (const PageCell& c : p.pages) {
        for (const Summary& s : c.by_group) n += s.count();
      }
    }
    return n;
  }

  [[nodiscard]] std::size_t discarded_samples() const { return discarded_; }

  /// page_key() of every sampled page, in key order.
  [[nodiscard]] std::vector<std::string> pages() const {
    std::vector<std::string> out;
    for (const PatternCell& p : patterns_) {
      for (const PageCell& c : p.pages) out.push_back(page_key(p.name, c.page));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::size_t kGroups = 2;
  [[nodiscard]] static std::size_t slot(ClientGroup g) { return g == ClientGroup::kLocal ? 0 : 1; }

  /// Name -> dense index, probed with string views so a lookup builds no key.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex = std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

  struct PageCell {
    std::string page;
    std::array<Summary, kGroups> by_group;
  };
  struct PatternCell {
    std::string name;
    std::array<Summary, kGroups> by_group;
    std::array<std::uint64_t, kGroups> failures{};
    std::array<std::uint64_t, kGroups> rejections{};
    std::vector<PageCell> pages;
    NameIndex page_ids;  // page name -> index into pages
  };

  PatternCell& pattern_cell(std::string_view pattern) {
    if (auto it = pattern_ids_.find(pattern); it != pattern_ids_.end()) {
      return patterns_[it->second];
    }
    pattern_ids_.emplace(std::string(pattern), static_cast<std::uint32_t>(patterns_.size()));
    PatternCell& p = patterns_.emplace_back();
    p.name = std::string(pattern);
    return p;
  }

  static PageCell& page_cell(PatternCell& p, std::string_view page) {
    if (auto it = p.page_ids.find(page); it != p.page_ids.end()) return p.pages[it->second];
    p.page_ids.emplace(std::string(page), static_cast<std::uint32_t>(p.pages.size()));
    PageCell& c = p.pages.emplace_back();
    c.page = std::string(page);
    return c;
  }

  [[nodiscard]] const PatternCell* find_pattern(std::string_view pattern) const {
    auto it = pattern_ids_.find(pattern);
    return it == pattern_ids_.end() ? nullptr : &patterns_[it->second];
  }

  sim::Duration warmup_;
  std::vector<PatternCell> patterns_;
  NameIndex pattern_ids_;
  sim::Duration series_window_ = sim::Duration::zero();
  std::array<std::unique_ptr<TimeSeries>, kGroups> series_;
  std::size_t discarded_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t rejections_ = 0;
  std::function<void(double)> observer_;
};

}  // namespace mutsvc::stats
