#include "simlint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

namespace simlint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool qual_char(char c) { return ident_char(c) || c == ':'; }

/// True when the quote at src[i] opens a raw string literal: `R"..."` with
/// an optional encoding prefix (u8R, uR, UR, LR). The character before the
/// whole prefix must not extend an identifier (`fooR"..."` is a plain
/// string preceded by an identifier, not a raw string).
bool raw_string_open(const std::string& src, std::size_t i) {
  if (i == 0 || src[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // index of 'R'
  if (p >= 2 && src[p - 2] == 'u' && src[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 && (src[p - 1] == 'u' || src[p - 1] == 'U' || src[p - 1] == 'L')) {
    p -= 1;
  }
  return p == 0 || !ident_char(src[p - 1]);
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Splits `src` into lines twice: verbatim, and with comments plus
/// string/char literal *contents* blanked to spaces (so tokens inside them
/// never match). Line structure is preserved exactly.
void split_and_blank(const std::string& src, std::vector<std::string>& raw,
                     std::vector<std::string>& code) {
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // raw string closing delimiter: )DELIM"
  std::string rline, cline;
  auto flush = [&] {
    raw.push_back(rline);
    code.push_back(cline);
    rline.clear();
    cline.clear();
  };
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      flush();
      continue;
    }
    rline.push_back(c);
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          cline.push_back(' ');
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          cline.push_back(' ');
        } else if (c == '"') {
          // R"delim( ... )delim", with optional encoding prefix (u8R"...",
          // LR"...", ...). Misclassifying a raw string as a plain string
          // mishandles embedded quotes/backslashes and leaks its contents
          // into the scanned code — a latent false-positive source.
          if (raw_string_open(src, i)) {
            std::size_t p = i + 1;
            std::string delim;
            while (p < src.size() && src[p] != '(' && src[p] != '\n') delim.push_back(src[p++]);
            raw_delim = ")" + delim + "\"";
            st = St::kRawString;
          } else {
            st = St::kString;
          }
          cline.push_back('"');
        } else if (c == '\'' && !(i > 0 && ident_char(src[i - 1]))) {
          // Skip digit separators (1'000'000): a quote after an identifier
          // character is not a char literal.
          st = St::kChar;
          cline.push_back('\'');
        } else {
          cline.push_back(c);
        }
        break;
      case St::kLineComment:
        cline.push_back(' ');
        break;
      case St::kBlockComment:
        cline.push_back(' ');
        if (c == '/' && i > 0 && src[i - 1] == '*') st = St::kCode;
        break;
      case St::kString:
        if (c == '\\') {
          cline.push_back(' ');
          if (next != '\0' && next != '\n') {
            rline.push_back(next);
            cline.push_back(' ');
            ++i;
          }
        } else if (c == '"') {
          cline.push_back('"');
          st = St::kCode;
        } else {
          cline.push_back(' ');
        }
        break;
      case St::kChar:
        if (c == '\\') {
          cline.push_back(' ');
          if (next != '\0' && next != '\n') {
            rline.push_back(next);
            cline.push_back(' ');
            ++i;
          }
        } else if (c == '\'') {
          cline.push_back('\'');
          st = St::kCode;
        } else {
          cline.push_back(' ');
        }
        break;
      case St::kRawString:
        cline.push_back(' ');
        if (c == '"' && rline.size() >= raw_delim.size() &&
            rline.compare(rline.size() - raw_delim.size(), raw_delim.size(), raw_delim) == 0) {
          st = St::kCode;
        }
        break;
    }
  }
  flush();
}

/// Whole-identifier search. `ident` may be qualified ("std::time"); when
/// `require_call`, the match must be followed by '(' (after spaces).
bool has_token(const std::string& line, const std::string& ident, bool require_call) {
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    std::size_t end = pos + ident.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) {
      if (!require_call) return true;
      while (end < line.size() && (line[end] == ' ' || line[end] == '\t')) ++end;
      if (end < line.size() && line[end] == '(') return true;
    }
    pos += ident.size();
  }
  return false;
}

struct FileCtx {
  std::string path;       // echoed in findings
  std::string tree_path;  // the path inside the scanned tree; rule scopes read it
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::set<std::string> file_allowed;
  std::vector<std::set<std::string>> line_allowed;

  [[nodiscard]] bool allowed(int line, const std::string& rule) const {
    auto in = [&](const std::set<std::string>& s) {
      return s.count(rule) != 0 || s.count("*") != 0;
    };
    if (in(file_allowed)) return true;
    auto at = [&](int l) {
      return l >= 1 && l <= static_cast<int>(line_allowed.size()) && in(line_allowed[l - 1]);
    };
    return at(line) || at(line - 1);
  }

  /// Whether the file lies under a directory named `dir` in its path
  /// inside the scanned tree (`tree_path`, '/'-separated). Directories
  /// above the scanned root never count.
  [[nodiscard]] bool under(const std::string& dir) const {
    std::size_t start = 0;
    for (std::size_t slash; (slash = tree_path.find('/', start)) != std::string::npos;
         start = slash + 1) {
      if (tree_path.compare(start, slash - start, dir) == 0) return true;
    }
    return false;
  }

  /// Whether the file's path inside the scanned tree ends in the path
  /// `tail` ("sim/time.hpp").
  [[nodiscard]] bool is(const std::string& tail) const {
    return tree_path.ends_with(tail) && (tree_path.size() == tail.size() ||
                                         tree_path[tree_path.size() - tail.size() - 1] == '/');
  }
};

void parse_allows(FileCtx& ctx) {
  ctx.line_allowed.resize(ctx.raw.size());
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    const std::string& line = ctx.raw[i];
    for (const char* marker : {"simlint:allow-file(", "simlint:allow("}) {
      std::size_t pos = line.find(marker);
      if (pos == std::string::npos) continue;
      pos += std::string(marker).size();
      std::size_t close = line.find(')', pos);
      if (close == std::string::npos) continue;
      std::istringstream rules_in(line.substr(pos, close - pos));
      std::string rule;
      const bool file_wide = std::string(marker).find("allow-file") != std::string::npos;
      while (std::getline(rules_in, rule, ',')) {
        rule = trim(rule);
        if (rule.empty()) continue;
        if (file_wide) {
          ctx.file_allowed.insert(rule);
        } else {
          ctx.line_allowed[i].insert(rule);
        }
      }
    }
  }
}

void add_finding(std::vector<Finding>& out, const FileCtx& ctx, int line, const std::string& rule,
                 std::string message) {
  if (ctx.allowed(line, rule)) return;
  out.push_back(Finding{ctx.path, line, rule, std::move(message)});
}

// --- rule: wall-clock --------------------------------------------------------

void rule_wall_clock(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.is("sim/time.hpp")) return;
  struct Tok {
    const char* t;
    bool call;
  };
  static const Tok kTokens[] = {{"system_clock", false},  {"steady_clock", false},
                                {"high_resolution_clock", false},
                                {"gettimeofday", true},   {"clock_gettime", true},
                                {"timespec_get", true},   {"std::time", true}};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    for (const Tok& tok : kTokens) {
      if (has_token(ctx.code[i], tok.t, tok.call)) {
        add_finding(out, ctx, static_cast<int>(i + 1), "wall-clock",
                    std::string("wall-clock time source '") + tok.t +
                        "' — simulated code must use Simulator::now()");
      }
    }
  }
}

// --- rule: raw-random --------------------------------------------------------

void rule_raw_random(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.is("sim/random.hpp")) return;
  struct Tok {
    const char* t;
    bool call;
  };
  static const Tok kTokens[] = {{"random_device", false}, {"mt19937", false},
                                {"mt19937_64", false},    {"minstd_rand", false},
                                {"drand48", true},        {"lrand48", true},
                                {"random_shuffle", false}, {"rand", true},
                                {"srand", true}};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    for (const Tok& tok : kTokens) {
      if (has_token(ctx.code[i], tok.t, tok.call)) {
        add_finding(out, ctx, static_cast<int>(i + 1), "raw-random",
                    std::string("raw randomness '") + tok.t +
                        "' — draw from a named sim::RngStream instead");
      }
    }
  }
}

// --- rule: unordered-iter ----------------------------------------------------

/// Names of variables declared (on one line) with an unordered container
/// type in this file.
std::set<std::string> unordered_names(const FileCtx& ctx) {
  static const char* kTypes[] = {"unordered_map<", "unordered_multimap<", "unordered_set<",
                                 "unordered_multiset<"};
  std::set<std::string> names;
  for (const std::string& line : ctx.code) {
    for (const char* type : kTypes) {
      std::size_t pos = line.find(type);
      while (pos != std::string::npos) {
        std::size_t p = pos + std::string(type).size() - 1;  // at '<'
        int depth = 0;
        while (p < line.size()) {
          if (line[p] == '<') ++depth;
          if (line[p] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++p;
        }
        if (p < line.size() && depth == 0) {
          ++p;  // past '>'
          while (p < line.size() &&
                 (line[p] == ' ' || line[p] == '&' || line[p] == '*')) {
            ++p;
          }
          std::string name;
          while (p < line.size() && ident_char(line[p])) name.push_back(line[p++]);
          if (!name.empty() && name != "const") names.insert(name);
        }
        pos = line.find(type, pos + 1);
      }
    }
  }
  return names;
}

void rule_unordered_iter(const FileCtx& ctx, std::vector<Finding>& out) {
  const std::set<std::string> names = unordered_names(ctx);
  if (names.empty()) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (!has_token(line, "for", false)) continue;
    // Range-for: extract the expression between ':' and the closing ')'.
    std::size_t open = line.find('(', line.find("for"));
    if (open != std::string::npos) {
      int depth = 0;
      std::size_t colon = std::string::npos, close = std::string::npos;
      for (std::size_t p = open; p < line.size(); ++p) {
        if (line[p] == '(') ++depth;
        if (line[p] == ')') {
          --depth;
          if (depth == 0) {
            close = p;
            break;
          }
        }
        if (line[p] == ':' && depth == 1 && colon == std::string::npos &&
            (p + 1 >= line.size() || line[p + 1] != ':') && (p == 0 || line[p - 1] != ':')) {
          colon = p;
        }
      }
      if (colon != std::string::npos && close != std::string::npos && close > colon) {
        std::string expr = trim(line.substr(colon + 1, close - colon - 1));
        while (!expr.empty() && (expr.front() == '*' || expr.front() == '&')) {
          expr.erase(expr.begin());
        }
        if (names.count(expr) != 0) {
          add_finding(out, ctx, static_cast<int>(i + 1), "unordered-iter",
                      "iteration over unordered container '" + expr +
                          "' — order is unspecified and can leak into results");
        }
      }
    }
    // Iterator-style: for (auto it = name.begin(); ...
    for (const std::string& name : names) {
      if (line.find(name + ".begin()") != std::string::npos ||
          line.find(name + ".cbegin()") != std::string::npos) {
        add_finding(out, ctx, static_cast<int>(i + 1), "unordered-iter",
                    "iteration over unordered container '" + name +
                        "' — order is unspecified and can leak into results");
      }
    }
  }
}

// --- rules: lost-task / nodiscard-task ---------------------------------------

/// Locates a `Task<` occurrence and expands it to the full qualified name
/// start (e.g. the 's' of "sim::Task"). Returns npos when none.
std::size_t find_task(const std::string& line, std::size_t from, std::size_t* name_begin) {
  std::size_t pos = line.find("Task<", from);
  while (pos != std::string::npos) {
    std::size_t begin = pos;
    while (begin > 0 && qual_char(line[begin - 1])) --begin;
    // The qualified token must end in "Task" (not e.g. "MyTask"-unlikely but
    // accept it: anything ending in Task is a coroutine task by convention
    // in this codebase).
    if (begin == pos || line.compare(begin, pos - begin, "sim::") == 0 ||
        line.rfind("::", pos) == pos - 2 || !ident_char(line[pos - 1])) {
      *name_begin = begin;
      return pos;
    }
    pos = line.find("Task<", pos + 1);
  }
  return std::string::npos;
}

/// From '<' at `open`, returns the index just past the matching '>', or npos.
std::size_t skip_template_args(const std::string& line, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < line.size(); ++p) {
    if (line[p] == '<') ++depth;
    if (line[p] == '>') {
      --depth;
      if (depth == 0) return p + 1;
    }
  }
  return std::string::npos;
}

bool contains_any(const std::string& s, std::initializer_list<const char*> words) {
  for (const char* w : words) {
    if (has_token(s, w, false)) return true;
  }
  return false;
}

void rule_lost_task(const FileCtx& ctx, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    std::size_t name_begin = 0;
    std::size_t pos = find_task(line, 0, &name_begin);
    if (pos == std::string::npos) continue;
    const std::string before = line.substr(0, name_begin);
    if (contains_any(before, {"return", "co_return", "co_await", "using", "typedef", "class",
                              "struct", "template", "friend"})) {
      continue;
    }
    if (before.find("->") != std::string::npos) continue;  // trailing return type
    std::size_t after = skip_template_args(line, pos + 4);
    if (after == std::string::npos) continue;
    while (after < line.size() && (line[after] == ' ' || line[after] == '&')) ++after;
    std::string name;
    while (after < line.size() && ident_char(line[after])) name.push_back(line[after++]);
    if (name.empty()) continue;
    while (after < line.size() && line[after] == ' ') ++after;
    // Variable with an initializer; `Task<..> name(...)` and bare `name;`
    // declarations are skipped (function declarations look the same).
    if (after >= line.size() || (line[after] != '=' && line[after] != '{')) continue;
    // Used anywhere else (co_await t, std::move(t), t.release(), spawn arg)?
    bool used = false;
    for (std::size_t j = 0; j < ctx.code.size() && !used; ++j) {
      if (j == i) {
        // Same-line use after the initializer (e.g. `Task<void> t = f(); co_await t;`).
        std::size_t p = line.find(';', after);
        if (p != std::string::npos && has_token(line.substr(p), name, false)) used = true;
        continue;
      }
      if (has_token(ctx.code[j], name, false)) used = true;
    }
    if (!used) {
      add_finding(out, ctx, static_cast<int>(i + 1), "lost-task",
                  "task '" + name +
                      "' is created but never co_awaited, moved, released, or spawned — "
                      "a lazy task that is dropped never runs");
    }
  }
}

void rule_nodiscard_task(const FileCtx& ctx, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    std::size_t name_begin = 0;
    std::size_t pos = find_task(line, 0, &name_begin);
    if (pos == std::string::npos) continue;
    const std::string before = line.substr(0, name_begin);
    if (contains_any(before, {"return", "co_return", "co_await", "using", "typedef", "class",
                              "struct", "template", "friend", "operator", "throw"})) {
      continue;
    }
    if (before.find("->") != std::string::npos) continue;  // lambda return type
    if (before.find('(') != std::string::npos) continue;   // parameter / argument position
    std::size_t after = skip_template_args(line, pos + 4);
    if (after == std::string::npos) continue;
    while (after < line.size() && (line[after] == ' ' || line[after] == '&')) ++after;
    std::string name;
    while (after < line.size() && ident_char(line[after])) name.push_back(line[after++]);
    // Qualified definitions (Type::method) belong to a declaration checked
    // at the declaration site.
    if (after + 1 < line.size() && line[after] == ':' && line[after + 1] == ':') continue;
    if (name.empty() || after >= line.size() || line[after] != '(') continue;
    // A declaration: check [[nodiscard]] on this line (before the type) or
    // the previous non-blank line.
    if (before.find("[[nodiscard]]") != std::string::npos) continue;
    bool prev_has = false;
    for (std::size_t j = i; j > 0; --j) {
      const std::string prev = trim(ctx.code[j - 1]);
      if (prev.empty()) continue;
      prev_has = prev.find("[[nodiscard]]") != std::string::npos &&
                 prev.find(';') == std::string::npos && prev.find('}') == std::string::npos;
      break;
    }
    if (prev_has) continue;
    add_finding(out, ctx, static_cast<int>(i + 1), "nodiscard-task",
                "Task-returning function '" + name +
                    "' lacks [[nodiscard]] — discarding a lazy task silently drops the work");
  }
}

// --- rule: lock-balance ------------------------------------------------------

void rule_lock_balance(const FileCtx& ctx, std::vector<Finding>& out) {
  std::vector<int> acquire_lines;
  bool any_release = false;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (line.find(".acquire(") != std::string::npos ||
        line.find("->acquire(") != std::string::npos) {
      acquire_lines.push_back(static_cast<int>(i + 1));
    }
    if (has_token(line, "release", true) || has_token(line, "unlock", true)) {
      any_release = true;
    }
  }
  if (any_release) return;
  for (int line : acquire_lines) {
    add_finding(out, ctx, line, "lock-balance",
                "lock acquired here but this file never calls release() — "
                "no path can release it");
  }
}

// --- rule: sim-shared-across-threads -----------------------------------------

/// The simulation kernel is single-threaded: a Simulator, its event heap,
/// and everything hanging off it must be confined to one thread. A file
/// that both names the Simulator type and spawns OS threads is the
/// signature of sharing a simulation across threads. The one sanctioned
/// crossing point is core/sweep.cpp, which fans out *whole trials* — each
/// thread owns its own Simulator — and its test; both carry explicit allow
/// markers, and everything else must keep simulation state off OS threads.
void rule_sim_shared_across_threads(const FileCtx& ctx, std::vector<Finding>& out) {
  bool names_simulator = false;
  for (const std::string& line : ctx.code) {
    if (has_token(line, "Simulator", false)) {
      names_simulator = true;
      break;
    }
  }
  if (!names_simulator) return;
  static const char* kThreadTokens[] = {"std::thread", "std::jthread"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    for (const char* tok : kThreadTokens) {
      if (has_token(ctx.code[i], tok, false)) {
        add_finding(out, ctx, static_cast<int>(i + 1), "sim-shared-across-threads",
                    std::string("'") + tok +
                        "' in a file that names sim::Simulator — simulation state is "
                        "thread-confined; parallelize whole trials via core::sweep "
                        "instead");
      }
    }
  }
}

// --- rule: cross-node-state --------------------------------------------------

/// Per-node replica state (read-only caches, query caches, JDBC clients,
/// store-and-forward write queues) lives in node-keyed containers. Reaching
/// into one of those containers directly is how an event on node A
/// silently touches node B's state without a Network/Topic edge. The
/// sanctioned doors are the node-checked accessors; any direct subscript /
/// member call on a node-keyed container in component/cache/db code is
/// flagged and must carry an explicit allow.
void rule_cross_node_state(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.under("component") && !ctx.under("cache") && !ctx.under("db")) return;
  static const char* kSuffixes[] = {"caches_", "clients_", "queues_"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    for (const char* sfx : kSuffixes) {
      std::size_t pos = 0;
      bool hit = false;
      while (!hit && (pos = line.find(sfx, pos)) != std::string::npos) {
        std::size_t end = pos + std::string(sfx).size();
        // Whole-identifier tail: `ro_caches_` matches "caches_", `caches_x`
        // does not.
        if (end < line.size() && !ident_char(line[end])) {
          std::size_t p = end;
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
          const bool member = p < line.size() && (line[p] == '[' || line[p] == '.' ||
                                                  (line[p] == '-' && p + 1 < line.size() &&
                                                   line[p + 1] == '>'));
          if (member) {
            std::size_t begin = pos;
            while (begin > 0 && ident_char(line[begin - 1])) --begin;
            add_finding(out, ctx, static_cast<int>(i + 1), "cross-node-state",
                        "direct access to node-keyed state container '" +
                            line.substr(begin, end - begin) +
                            "' — go through the node-checked accessor or a "
                            "net::Network / msg::Topic edge");
            hit = true;
          }
        }
        pos = end;
      }
    }
  }
}

// --- rule: ambient-node-capture ----------------------------------------------

/// Deferred work (spawned coroutines, scheduled callbacks, topic
/// subscriptions) that default-captures by reference smuggles ambient
/// pointers into events that may run on another node's timeline — exactly
/// the captures that dangle or race once trials execute under per-node
/// event queues. Product code must capture the owning objects explicitly;
/// tests (single simulation, lambda outlives the run) are exempt.
void rule_ambient_node_capture(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.under("src")) return;
  static const char* kDeferred[] = {"spawn", "schedule_after", "schedule_at", "subscribe"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (line.find("[&]") == std::string::npos && line.find("[&,") == std::string::npos) {
      continue;
    }
    for (const char* call : kDeferred) {
      if (has_token(line, call, true)) {
        add_finding(out, ctx, static_cast<int>(i + 1), "ambient-node-capture",
                    std::string("deferred work via '") + call +
                        "' default-captures by reference ([&]) — name the captured "
                        "objects so node ownership stays visible");
        break;
      }
    }
  }
}

// --- rule: global-mutable ----------------------------------------------------

/// Namespace-scope mutable state in src/ outside sim/ is shared across
/// every trial in a process (and across sweep worker threads): it breaks
/// trial isolation and is invisible to the per-node ownership model. The
/// scanner walks the blanked source with a brace-kind stack so only
/// declarations at namespace scope are considered; const/constexpr,
/// functions, types and aliases are skipped.
void rule_global_mutable(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.under("src") || ctx.under("sim")) return;

  // Statement-level skip tokens: declarations these introduce are either
  // immutable, types, or not variable definitions at all.
  static const char* kSkip[] = {"const",     "constexpr", "constinit", "consteval",
                                "using",     "typedef",   "extern",    "friend",
                                "template",  "operator",  "namespace", "class",
                                "struct",    "enum",      "union",     "static_assert",
                                "concept",   "requires"};

  std::vector<char> scopes;  // 'n' = namespace, 'b' = type/function/block
  int init_depth = 0;        // inside a brace initializer of the current statement
  std::string stmt;
  int stmt_line = 0;

  auto at_namespace_scope = [&] {
    for (char s : scopes) {
      if (s != 'n') return false;
    }
    return true;
  };
  auto last_nonspace = [](const std::string& s) -> char {
    for (std::size_t p = s.size(); p > 0; --p) {
      if (s[p - 1] != ' ' && s[p - 1] != '\t') return s[p - 1];
    }
    return '\0';
  };
  auto analyze = [&](const std::string& statement, int line) {
    const std::string t = trim(statement);
    if (t.empty()) return;
    // Head of the declaration: everything before the initializer.
    std::size_t cut = t.find_first_of("={");
    const std::string head = trim(cut == std::string::npos ? t : t.substr(0, cut));
    if (head.empty() || head.find('(') != std::string::npos) return;  // function decl
    for (const char* w : kSkip) {
      if (has_token(head, w, false)) return;
    }
    // A variable definition needs a type and a name: at least two
    // identifier tokens in the head.
    int idents = 0;
    bool in_ident = false;
    for (char c : head) {
      if (ident_char(c)) {
        if (!in_ident) ++idents;
        in_ident = true;
      } else {
        in_ident = false;
      }
    }
    if (idents < 2) return;
    // The declared name: last identifier in the head.
    std::size_t e = head.size();
    while (e > 0 && !ident_char(head[e - 1])) --e;
    std::size_t b = e;
    while (b > 0 && ident_char(head[b - 1])) --b;
    add_finding(out, ctx, line, "global-mutable",
                "namespace-scope mutable state '" + head.substr(b, e - b) +
                    "' — shared across trials and sweep workers; move it into the "
                    "Simulator/Experiment or make it constexpr");
  };

  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    // Preprocessor lines never open statements and never end with ';'.
    const std::string lt = trim(line);
    if (!lt.empty() && lt[0] == '#') continue;
    for (char c : line) {
      if (init_depth > 0) {
        if (c == '{') ++init_depth;
        if (c == '}') --init_depth;
        stmt.push_back(c);
        continue;
      }
      if (c == '{') {
        const char prev = last_nonspace(stmt);
        if (has_token(stmt, "namespace", false)) {
          scopes.push_back('n');
          stmt.clear();
        } else if (at_namespace_scope() && (ident_char(prev) || prev == '>') &&
                   stmt.find('(') == std::string::npos &&
                   !has_token(stmt, "class", false) && !has_token(stmt, "struct", false) &&
                   !has_token(stmt, "enum", false) && !has_token(stmt, "union", false)) {
          // Brace initializer of a namespace-scope declaration
          // (`std::atomic<bool> g{...};`): part of the statement.
          ++init_depth;
          stmt.push_back(c);
        } else {
          scopes.push_back('b');
          stmt.clear();
        }
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        stmt.clear();
      } else if (c == ';') {
        if (at_namespace_scope()) analyze(stmt, stmt_line);
        stmt.clear();
      } else {
        if (stmt.empty() || trim(stmt).empty()) stmt_line = static_cast<int>(i + 1);
        stmt.push_back(c);
      }
    }
    if (!stmt.empty()) stmt.push_back(' ');  // line break inside a statement
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock", "wall-clock time source outside sim/time.hpp"},
      {"raw-random", "ad-hoc randomness outside sim/random.hpp"},
      {"unordered-iter", "iteration over an unordered container"},
      {"lost-task", "sim::Task created but never awaited/moved/spawned"},
      {"lock-balance", "acquire() with no release() anywhere in the file"},
      {"nodiscard-task", "Task-returning declaration missing [[nodiscard]]"},
      {"sim-shared-across-threads", "OS threads in a file that names sim::Simulator"},
      {"cross-node-state", "direct access to a node-keyed state container"},
      {"ambient-node-capture", "deferred work default-capturing by reference"},
      {"global-mutable", "namespace-scope mutable state in src/ outside sim/"},
  };
  return kRules;
}

std::vector<Finding> lint_source(const std::string& path, const std::string& source,
                                 const std::string& tree_path) {
  FileCtx ctx;
  ctx.path = path;
  ctx.tree_path = tree_path.empty() ? path : tree_path;
  split_and_blank(source, ctx.raw, ctx.code);
  parse_allows(ctx);

  std::vector<Finding> out;
  rule_wall_clock(ctx, out);
  rule_raw_random(ctx, out);
  rule_unordered_iter(ctx, out);
  rule_lost_task(ctx, out);
  rule_lock_balance(ctx, out);
  rule_nodiscard_task(ctx, out);
  rule_sim_shared_across_threads(ctx, out);
  rule_cross_node_state(ctx, out);
  rule_ambient_node_capture(ctx, out);
  rule_global_mutable(ctx, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> lint_file(const std::string& path, const std::string& tree_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io-error", "cannot open file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str(), tree_path);
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".hpp", ".h", ".hh", ".cpp", ".cc", ".cxx"};
  std::vector<std::pair<std::string, std::string>> files;  // (path, tree path)
  for (const std::string& p : paths) {
    if (!fs::is_directory(p)) {
      const fs::path here = fs::absolute(p).lexically_normal();
      files.emplace_back(p, here.lexically_proximate(fs::current_path()).generic_string());
      continue;
    }
    fs::path root = fs::absolute(p).lexically_normal();
    if (!root.has_filename()) root = root.parent_path();  // "src/" is named "src"
    for (auto it = fs::recursive_directory_iterator(p); it != fs::recursive_directory_iterator();
         ++it) {
      const fs::path& fp = it->path();
      if (it->is_directory()) {
        const std::string name = fp.filename().string();
        if (name == ".git" || name.starts_with("build")) it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || kExts.count(fp.extension().string()) == 0) continue;
      const fs::path below = fs::absolute(fp).lexically_normal().lexically_relative(root);
      files.emplace_back(fp.string(), (root.filename() / below).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> out;
  for (const auto& [path, tree_path] : files) {
    std::vector<Finding> ff = lint_file(path, tree_path);
    out.insert(out.end(), ff.begin(), ff.end());
  }
  return out;
}

void print_text(std::ostream& os, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

void print_json(std::ostream& os, const std::vector<Finding>& findings) {
  // Versioned envelope (simlint-v2): CI diffs stay stable across simlint
  // upgrades — consumers key on "schema" instead of sniffing the shape.
  os << "{\n\"schema\": \"simlint-v2\",\n\"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) os << ",";
    os << "\n  {\"file\": \"" << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"rule\": \"" << json_escape(f.rule) << "\", \"message\": \""
       << json_escape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]" : "\n]") << "\n}\n";
}

void print_fix_suppressions(std::ostream& os, const std::vector<Finding>& findings) {
  // Group rules per (file, line): one merged allow comment per source line.
  std::map<std::pair<std::string, int>, std::set<std::string>> by_line;
  for (const Finding& f : findings) {
    if (f.line <= 0) continue;  // io-error pseudo-findings have no line
    by_line[{f.file, f.line}].insert(f.rule);
  }
  std::string cached_file;
  std::vector<std::string> cached_lines;
  for (const auto& [key, rules_at] : by_line) {
    const auto& [file, line] = key;
    if (file != cached_file) {
      cached_file = file;
      cached_lines.clear();
      std::ifstream in(file, std::ios::binary);
      std::string l;
      while (std::getline(in, l)) cached_lines.push_back(l);
    }
    std::string allow = "simlint:allow(";
    bool first = true;
    for (const std::string& r : rules_at) {
      if (!first) allow += ",";
      allow += r;
      first = false;
    }
    allow += ")";
    os << file << ":" << line << ":\n";
    if (line <= static_cast<int>(cached_lines.size())) {
      const std::string& src = cached_lines[line - 1];
      os << "  - " << src << "\n";
      os << "  + " << src << "  // " << allow << " — <why>\n";
    } else {
      os << "  + // " << allow << " — <why>\n";
    }
  }
}

}  // namespace simlint
