// benchstat: compare two mutsvc-bench/v1 JSON files and fail on regression.
//
// Usage:
//   benchstat OLD.json NEW.json [--max-regression 0.25]
//
// Every metric in OLD (the baseline) must be present in NEW: a missing one
// prints a `MISSING <benchmark>/<metric>` line and fails the comparison, so
// a bench that silently stops running a workload cannot pass its gate.
// Metrics only in NEW are ignored. For every shared metric an
// old/new/delta row is printed. Exits 1 when any throughput metric
// (`*_per_sec`) in NEW is more than --max-regression below OLD (default
// 25%, matching the CI perf-smoke gate). Deterministic metrics (no `wall_`
// prefix) are additionally required to match exactly — a changed `events`
// count means the simulation trajectory changed, which is a correctness
// bug, not a perf delta. Histogram-derived metrics (`hist_` prefix or
// `_bucket` suffix convention from perfjson.hpp) are simulated counts:
// strictly deterministic, never throughput-gated.
//
// The parser handles exactly the subset of JSON that perfjson.hpp emits
// (string keys, numeric values, fixed nesting); it is not a general JSON
// parser and does not try to be.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchFile {
  // "benchmark.name/metric_name" -> value, in file order.
  std::vector<std::pair<std::string, double>> metrics;
};

// Minimal scanner for the perfjson.hpp output shape: walks the text
// collecting "name" fields (benchmark scope) and numeric key/value pairs
// inside "metrics" objects.
bool parse_bench_json(const std::string& path, BenchFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "benchstat: cannot open " << path << "\n";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::string scope;
  std::size_t i = 0;
  auto read_string = [&](std::size_t& pos) {
    std::string s;
    ++pos;  // opening quote
    while (pos < text.size() && text[pos] != '"') s += text[pos++];
    ++pos;  // closing quote
    return s;
  };
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    std::string key = read_string(i);
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i >= text.size() || text[i] != ':') continue;
    ++i;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i < text.size() && text[i] == '"') {
      std::string value = read_string(i);
      if (key == "name") scope = value;
    } else if (i < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '-')) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str() + i, &end);
      i = static_cast<std::size_t>(end - text.c_str());
      if (key != "schema" && !scope.empty()) {
        out.metrics.emplace_back(scope + "/" + key, v);
      }
    }
  }
  return true;
}

bool is_throughput(const std::string& name) {
  return name.size() >= 8 && name.compare(name.size() - 8, 8, "_per_sec") == 0;
}

bool is_wall(const std::string& metric_part) {
  return metric_part.rfind("wall_", 0) == 0;
}

// Fixed-bucket histogram exports (stats::Histogram via perfjson
// add_histogram): bucket counts on the simulated clock. They are held to
// the bit-identical determinism bar and are exempt from the throughput
// gate even if a name ever matches `*_per_sec`.
bool is_histogram(const std::string& metric_part) {
  return metric_part.rfind("hist_", 0) == 0 ||
         metric_part.find("_bucket") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  double max_regression = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-regression" && i + 1 < argc) {
      max_regression = std::strtod(argv[++i], nullptr);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: benchstat OLD.json NEW.json [--max-regression 0.25]\n";
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::cerr << "usage: benchstat OLD.json NEW.json [--max-regression 0.25]\n";
    return 2;
  }

  BenchFile oldf, newf;
  if (!parse_bench_json(files[0], oldf) || !parse_bench_json(files[1], newf)) return 2;

  std::map<std::string, double> newmap(newf.metrics.begin(), newf.metrics.end());

  std::printf("%-52s %14s %14s %9s\n", "metric", "old", "new", "delta");
  bool regressed = false;
  bool determinism_broken = false;
  bool missing = false;
  for (const auto& [name, oldv] : oldf.metrics) {
    auto it = newmap.find(name);
    if (it == newmap.end()) {
      std::fprintf(stderr, "benchstat: MISSING %s (in %s, absent from %s)\n", name.c_str(),
                   files[0].c_str(), files[1].c_str());
      missing = true;
      continue;
    }
    const double newv = it->second;
    const double delta = oldv != 0.0 ? (newv - oldv) / oldv : 0.0;
    std::printf("%-52s %14.6g %14.6g %+8.1f%%\n", name.c_str(), oldv, newv, delta * 100.0);

    const std::string metric_part = name.substr(name.find('/') + 1);
    if (is_throughput(name) && !is_histogram(metric_part) && oldv > 0.0 &&
        newv < oldv * (1.0 - max_regression)) {
      std::fprintf(stderr, "benchstat: REGRESSION %s: %.6g -> %.6g (limit -%.0f%%)\n",
                   name.c_str(), oldv, newv, max_regression * 100.0);
      regressed = true;
    }
    if (!is_wall(metric_part) && oldv != newv) {
      std::fprintf(stderr,
                   "benchstat: DETERMINISM %s changed: %.17g -> %.17g "
                   "(non-wall metrics must be bit-identical)\n",
                   name.c_str(), oldv, newv);
      determinism_broken = true;
    }
  }

  if (regressed || determinism_broken || missing) return 1;
  std::cout << "benchstat: OK (max regression " << max_regression * 100.0 << "%)\n";
  return 0;
}
