// simlint rule coverage: each determinism / coroutine-hazard rule must
// catch its deliberately-buggy fixture and stay quiet on the idiomatic
// equivalent; the suppression syntax must work at line and file scope.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include "simlint/lint.hpp"

namespace {

using simlint::Finding;
using simlint::lint_source;

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

int line_of(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

// --- wall-clock ----------------------------------------------------------------

TEST(SimlintWallClock, FlagsSystemClockOutsideSimTime) {
  const auto f = lint_source("src/apps/foo.cpp",
                             "auto t = std::chrono::system_clock::now();\n");
  EXPECT_EQ(count_rule(f, "wall-clock"), 1u);
  EXPECT_EQ(f[0].line, 1);
}

TEST(SimlintWallClock, ExemptsSimTimeHeader) {
  const auto f = lint_source("src/sim/time.hpp", "using clk = std::chrono::steady_clock;\n");
  EXPECT_EQ(count_rule(f, "wall-clock"), 0u);
}

TEST(SimlintWallClock, IgnoresTokensInStringsAndComments) {
  const auto f = lint_source("src/a.cpp",
                             "// system_clock is banned\n"
                             "const char* s = \"steady_clock\";\n");
  EXPECT_EQ(count_rule(f, "wall-clock"), 0u);
}

// --- raw-random ----------------------------------------------------------------

TEST(SimlintRawRandom, FlagsRandomDeviceAndRand) {
  const auto f = lint_source("src/a.cpp",
                             "std::random_device rd;\n"
                             "int x = rand();\n"
                             "std::mt19937 gen(42);\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 3u);
}

TEST(SimlintRawRandom, ExemptsSimRandomHeader) {
  const auto f = lint_source("src/sim/random.hpp", "std::mt19937_64 engine_;\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
}

TEST(SimlintRawRandom, WordBoundaryPreventsFalsePositives) {
  // "strand()" contains "rand(" but is not a call to rand.
  const auto f = lint_source("src/a.cpp", "io.strand();\nint operand(int);\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
}

// --- unordered-iter ------------------------------------------------------------

TEST(SimlintUnorderedIter, FlagsRangeForOverUnorderedMember) {
  const auto f = lint_source("src/a.hpp",
                             "std::unordered_map<std::string, int> counts_;\n"
                             "void dump() {\n"
                             "  for (const auto& [k, v] : counts_) {\n"
                             "  }\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1u);
  EXPECT_EQ(line_of(f, "unordered-iter"), 3);
}

TEST(SimlintUnorderedIter, FlagsIteratorLoop) {
  const auto f = lint_source("src/a.hpp",
                             "std::unordered_set<int> live_;\n"
                             "void sweep() {\n"
                             "  for (auto it = live_.begin(); it != live_.end();) {\n"
                             "  }\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1u);
}

TEST(SimlintUnorderedIter, OrderedMapIsFine) {
  const auto f = lint_source("src/a.hpp",
                             "std::map<std::string, int> counts_;\n"
                             "void dump() {\n"
                             "  for (const auto& [k, v] : counts_) {\n"
                             "  }\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0u);
}

TEST(SimlintUnorderedIter, LookupsAreFine) {
  const auto f = lint_source("src/a.hpp",
                             "std::unordered_map<std::string, int> counts_;\n"
                             "int get(const std::string& k) { return counts_.at(k); }\n");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0u);
}

// --- lost-task -----------------------------------------------------------------

TEST(SimlintLostTask, FlagsTaskNeverAwaited) {
  const auto f = lint_source("src/a.cpp",
                             "sim::Task<void> run() {\n"
                             "  sim::Task<void> t = step();\n"
                             "  co_return;\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "lost-task"), 1u);
  EXPECT_EQ(line_of(f, "lost-task"), 2);
}

TEST(SimlintLostTask, AwaitedTaskIsFine) {
  const auto f = lint_source("src/a.cpp",
                             "sim::Task<void> run() {\n"
                             "  sim::Task<void> t = step();\n"
                             "  co_await t;\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "lost-task"), 0u);
}

TEST(SimlintLostTask, MovedOrSpawnedTaskIsFine) {
  const auto moved = lint_source("src/a.cpp",
                                 "void run() {\n"
                                 "  sim::Task<void> t = step();\n"
                                 "  sim.spawn(std::move(t));\n"
                                 "}\n");
  EXPECT_EQ(count_rule(moved, "lost-task"), 0u);
  const auto released = lint_source("src/b.cpp",
                                    "void run() {\n"
                                    "  sim::Task<void> t = step();\n"
                                    "  auto h = t.release();\n"
                                    "}\n");
  EXPECT_EQ(count_rule(released, "lost-task"), 0u);
}

// --- lock-balance --------------------------------------------------------------

TEST(SimlintLockBalance, FlagsAcquireWithoutAnyRelease) {
  const auto f = lint_source("src/a.cpp",
                             "sim::Task<void> f(sim::SimMutex& m) {\n"
                             "  co_await m.acquire();\n"
                             "  co_return;\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "lock-balance"), 1u);
  EXPECT_EQ(line_of(f, "lock-balance"), 2);
}

TEST(SimlintLockBalance, BalancedFileIsFine) {
  const auto f = lint_source("src/a.cpp",
                             "sim::Task<void> f(sim::SimMutex& m) {\n"
                             "  co_await m.acquire();\n"
                             "  m.release();\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "lock-balance"), 0u);
}

// --- nodiscard-task ------------------------------------------------------------

TEST(SimlintNodiscardTask, FlagsUnattributedDeclaration) {
  const auto f = lint_source("src/a.hpp", "sim::Task<void> refresh(int pk);\n");
  EXPECT_EQ(count_rule(f, "nodiscard-task"), 1u);
}

TEST(SimlintNodiscardTask, AttributedDeclarationIsFine) {
  const auto same = lint_source("src/a.hpp", "[[nodiscard]] sim::Task<void> refresh(int pk);\n");
  EXPECT_EQ(count_rule(same, "nodiscard-task"), 0u);
  const auto prev = lint_source("src/b.hpp",
                                "[[nodiscard]]\n"
                                "sim::Task<void> refresh(int pk);\n");
  EXPECT_EQ(count_rule(prev, "nodiscard-task"), 0u);
}

TEST(SimlintNodiscardTask, SkipsLambdaReturnTypesAndOutOfLineDefinitions) {
  const auto lambda = lint_source("src/a.cpp", "auto f = [&]() -> sim::Task<int> { co_return 1; };\n");
  EXPECT_EQ(count_rule(lambda, "nodiscard-task"), 0u);
  const auto defn = lint_source("src/b.cpp", "sim::Task<void> Runtime::push(int x) {\n}\n");
  EXPECT_EQ(count_rule(defn, "nodiscard-task"), 0u);
}

// --- sim-shared-across-threads -------------------------------------------------

TEST(SimlintSimSharedAcrossThreads, FlagsThreadsNextToSimulator) {
  const auto f = lint_source("src/core/bad.cpp",
                             "void run(sim::Simulator& s) {\n"
                             "  std::thread t([&] { s.run_until(end); });\n"
                             "  t.join();\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "sim-shared-across-threads"), 1u);
  EXPECT_EQ(line_of(f, "sim-shared-across-threads"), 2);
}

TEST(SimlintSimSharedAcrossThreads, FlagsJthreadToo) {
  const auto f = lint_source("src/core/bad.cpp",
                             "#include \"sim/simulator.hpp\"\n"
                             "sim::Simulator s(1);\n"
                             "std::jthread worker;\n");
  EXPECT_EQ(count_rule(f, "sim-shared-across-threads"), 1u);
}

TEST(SimlintSimSharedAcrossThreads, ThreadsWithoutSimulatorAreFine) {
  const auto f = lint_source("tools/misc.cpp",
                             "void fanout() {\n"
                             "  std::thread t([] {});\n"
                             "  t.join();\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "sim-shared-across-threads"), 0u);
}

TEST(SimlintSimSharedAcrossThreads, SimulatorWithoutThreadsIsFine) {
  const auto f = lint_source("src/core/fine.cpp",
                             "sim::Simulator s(1);\n"
                             "s.run_until(sim::SimTime::origin());\n");
  EXPECT_EQ(count_rule(f, "sim-shared-across-threads"), 0u);
}

TEST(SimlintSimSharedAcrossThreads, SuppressibleWhereJustified) {
  const auto f = lint_source("src/core/sweep.cpp",
                             "sim::Simulator* owned_by_trial;\n"
                             "// simlint:allow(sim-shared-across-threads)\n"
                             "std::vector<std::thread> pool;\n");
  EXPECT_EQ(count_rule(f, "sim-shared-across-threads"), 0u);
}

// --- raw string blanking -------------------------------------------------------

TEST(SimlintRawString, BannedTokensInsideRawStringsAreBlanked) {
  const auto f = lint_source("src/a.cpp",
                             "const char* q = R\"(select rand() from system_clock)\";\n");
  EXPECT_EQ(f.size(), 0u);
}

TEST(SimlintRawString, MultiLineRawStringIsBlanked) {
  const auto f = lint_source("src/a.cpp",
                             "const char* q = R\"sql(\n"
                             "  std::mt19937 gen;  // not code\n"
                             "  gettimeofday(now)\n"
                             ")sql\";\n"
                             "int x = rand();\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 1u);
  EXPECT_EQ(line_of(f, "raw-random"), 5);
  EXPECT_EQ(count_rule(f, "wall-clock"), 0u);
}

TEST(SimlintRawString, EncodingPrefixedRawStringsAreBlanked) {
  // u8R"(...)" / LR"(...)" must enter the raw-string state; falling into
  // the plain-string state mishandles the embedded quote and leaks the
  // tail into scanned code.
  const auto f = lint_source("src/a.cpp",
                             "auto a = u8R\"(quote \" then rand())\";\n"
                             "auto b = LR\"(backslash \\ then mt19937)\";\n"
                             "auto c = uR\"(steady_clock)\";\n"
                             "auto d = UR\"(random_device)\";\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
  EXPECT_EQ(count_rule(f, "wall-clock"), 0u);
}

TEST(SimlintRawString, IdentifierEndingInRIsNotARawString) {
  // `fooR"..."` is an identifier adjacent to a plain string, not a raw
  // string: the contents must still be blanked as a plain string.
  const auto f = lint_source("src/a.cpp", "auto s = fooR\"rand()\";\nint y = rand();\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 1u);
  EXPECT_EQ(line_of(f, "raw-random"), 2);
}

// --- cross-node-state ----------------------------------------------------------

TEST(SimlintCrossNodeState, FlagsDirectContainerAccessInComponentCode) {
  const auto f = lint_source("src/component/runtime.cpp",
                             "void f() {\n"
                             "  auto it = ro_caches_.find(key);\n"
                             "  jdbc_clients_[node]->query(q);\n"
                             "  write_queues_->front();\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "cross-node-state"), 3u);
}

TEST(SimlintCrossNodeState, DeclarationsAndOtherDirsAreFine) {
  // Declaring the member is fine; only subscripts / member calls reach in.
  const auto decl = lint_source("src/component/runtime.hpp",
                                "std::map<Key, CachePtr> ro_caches_;\n");
  EXPECT_EQ(count_rule(decl, "cross-node-state"), 0u);
  // Outside component/cache/db the rule does not apply.
  const auto other = lint_source("src/core/experiment.cpp",
                                 "auto it = ro_caches_.find(key);\n");
  EXPECT_EQ(count_rule(other, "cross-node-state"), 0u);
}

TEST(SimlintCrossNodeState, WholeIdentifierMatchOnly) {
  const auto f = lint_source("src/cache/rocache.cpp",
                             "int caches_x = 0;\n"
                             "caches_x.foo();\n");
  EXPECT_EQ(count_rule(f, "cross-node-state"), 0u);
}

// --- ambient-node-capture ------------------------------------------------------

TEST(SimlintAmbientNodeCapture, FlagsDefaultRefCaptureInDeferredWork) {
  const auto f = lint_source("src/component/runtime.cpp",
                             "void f(sim::Simulator& sim) {\n"
                             "  sim.spawn(run([&] { touch(other_node); }));\n"
                             "  sim.schedule_after(d, [&] { tick(); });\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "ambient-node-capture"), 2u);
}

TEST(SimlintAmbientNodeCapture, ExplicitCapturesAndTestsAreFine) {
  const auto expl = lint_source("src/component/runtime.cpp",
                                "sim.schedule_after(d, [this, node] { tick(node); });\n");
  EXPECT_EQ(count_rule(expl, "ambient-node-capture"), 0u);
  // Tests run a single simulation whose lambdas outlive the run.
  const auto test = lint_source("tests/foo_test.cpp",
                                "sim.schedule_after(ms(10), [&] { ++fired; });\n");
  EXPECT_EQ(count_rule(test, "ambient-node-capture"), 0u);
}

TEST(SimlintAmbientNodeCapture, NonDeferredLambdasAreFine) {
  const auto f = lint_source("src/core/report.cpp",
                             "std::sort(v.begin(), v.end(), [&](int a, int b) { return a < b; });\n");
  EXPECT_EQ(count_rule(f, "ambient-node-capture"), 0u);
}

// --- global-mutable ------------------------------------------------------------

TEST(SimlintGlobalMutable, FlagsNamespaceScopeMutables) {
  const auto f = lint_source("src/core/bad.cpp",
                             "namespace mutsvc::core {\n"
                             "int g_counter = 0;\n"
                             "std::atomic<bool> g_flag{false};\n"
                             "static double g_rate;\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "global-mutable"), 3u);
}

TEST(SimlintGlobalMutable, ConstAndFunctionsAndLocalsAreFine) {
  const auto f = lint_source("src/core/fine.cpp",
                             "namespace mutsvc::core {\n"
                             "constexpr int kLimit = 8;\n"
                             "const char* const kName = \"x\";\n"
                             "int bump();\n"
                             "int bump() {\n"
                             "  static int local = 0;\n"
                             "  return ++local;\n"
                             "}\n"
                             "struct S { int member = 0; };\n"
                             "using Alias = int;\n"
                             "}\n");
  EXPECT_EQ(count_rule(f, "global-mutable"), 0u);
}

TEST(SimlintGlobalMutable, SimDirAndNonSrcAreExempt) {
  const auto sim = lint_source("src/sim/simcheck.cpp",
                               "namespace d {\nstd::atomic<bool> g_enabled{false};\n}\n");
  EXPECT_EQ(count_rule(sim, "global-mutable"), 0u);
  const auto test = lint_source("tests/foo_test.cpp", "int g_seen = 0;\n");
  EXPECT_EQ(count_rule(test, "global-mutable"), 0u);
}

TEST(SimlintGlobalMutable, ReportsDeclarationLine) {
  const auto f = lint_source("src/core/bad.cpp",
                             "namespace a {\n"
                             "namespace b {\n"
                             "\n"
                             "long g_total = 0;\n"
                             "}\n"
                             "}\n");
  ASSERT_EQ(count_rule(f, "global-mutable"), 1u);
  EXPECT_EQ(line_of(f, "global-mutable"), 4);
  EXPECT_NE(f[0].message.find("g_total"), std::string::npos);
}

// --- path scoping ---------------------------------------------------------------

/// A checkout on disk under `<temp>/<parent>/checkout`, removed at scope
/// exit: the rules must scope by the path inside the scanned tree, never
/// by the directories above it.
class Checkout {
 public:
  explicit Checkout(const std::string& parent)
      : top_(std::filesystem::path(testing::TempDir()) /
             ("simlint-scope-" + std::to_string(::getpid()) + "-" + parent)),
        root_(top_ / parent / "checkout") {
    std::filesystem::remove_all(top_);
    std::filesystem::create_directories(root_);
  }
  Checkout(const Checkout&) = delete;
  Checkout& operator=(const Checkout&) = delete;
  ~Checkout() {
    std::error_code ec;
    std::filesystem::remove_all(top_, ec);
  }

  void write(const std::string& rel, const std::string& text) const {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream(p) << text;
  }
  [[nodiscard]] std::string operator/(const std::string& rel) const {
    return (root_ / rel).string();
  }

 private:
  std::filesystem::path top_;
  std::filesystem::path root_;
};

const char* const kAmbientCapture =
    "void f(Simulator& s, int& n) { s.schedule_after(ms(1), [&] { ++n; }); }\n";
const char* const kGlobalCounter = "int g_counter = 0;\n";

TEST(SimlintPathScope, ParentNamedSrcDoesNotScopeTestsOrBench) {
  const Checkout co("src");
  co.write("tests/foo_test.cpp", kAmbientCapture);
  co.write("bench/bench_foo.cpp", kGlobalCounter);
  co.write("src/core/bad.cpp", kGlobalCounter);
  EXPECT_TRUE(simlint::lint_paths({co / "tests", co / "bench"}).empty());
  const auto f = simlint::lint_paths({co / "src"});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "global-mutable");
}

TEST(SimlintPathScope, ParentNamedSimDoesNotExemptSrc) {
  const Checkout co("sim");
  co.write("src/core/bad.cpp", kGlobalCounter);
  co.write("src/sim/pool.cpp", kGlobalCounter);  // src/sim/ inside the tree stays exempt
  const auto f = simlint::lint_paths({co / "src"});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "global-mutable");
  EXPECT_EQ(f[0].file, co / "src/core/bad.cpp");
  EXPECT_EQ(f[0].line, 1);
}

TEST(SimlintPathScope, ParentNamedBuildsIsScannedBuildTreesBelowAreNot) {
  const Checkout co("builds");
  co.write("src/core/bad.cpp", kGlobalCounter);
  co.write("build/src/core/generated.cpp", kGlobalCounter);
  co.write("build-asan/src/core/generated.cpp", kGlobalCounter);
  co.write(".git/src/core/stale.cpp", kGlobalCounter);
  const auto f = simlint::lint_paths({co / ""});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, co / "src/core/bad.cpp");
}

// --- suppressions --------------------------------------------------------------

TEST(SimlintSuppression, SameLineAllow) {
  const auto f = lint_source("src/a.cpp", "int x = rand();  // simlint:allow(raw-random)\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
}

TEST(SimlintSuppression, PrecedingLineAllow) {
  const auto f = lint_source("src/a.cpp",
                             "// simlint:allow(raw-random)\n"
                             "int x = rand();\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
}

TEST(SimlintSuppression, AllowOnlySilencesNamedRule) {
  const auto f = lint_source("src/a.cpp",
                             "// simlint:allow(wall-clock)\n"
                             "int x = rand();\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 1u);
}

TEST(SimlintSuppression, FileWideAllow) {
  const auto f = lint_source("src/a.cpp",
                             "// simlint:allow-file(raw-random)\n"
                             "int x = rand();\n"
                             "int y = rand();\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
}

// --- output formats ------------------------------------------------------------

TEST(SimlintOutput, JsonReportIsVersionedMachineReadable) {
  const auto f = lint_source("src/a.cpp", "int x = rand();\n");
  std::ostringstream os;
  simlint::print_json(os, f);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": \"simlint-v2\""), std::string::npos);
  EXPECT_NE(out.find("\"rule\": \"raw-random\""), std::string::npos);
  EXPECT_NE(out.find("\"line\": 1"), std::string::npos);
  EXPECT_EQ(out.front(), '{');
}

TEST(SimlintOutput, EmptyJsonReportStillCarriesSchema) {
  std::ostringstream os;
  simlint::print_json(os, {});
  EXPECT_NE(os.str().find("\"schema\": \"simlint-v2\""), std::string::npos);
  EXPECT_NE(os.str().find("\"findings\": []"), std::string::npos);
}

TEST(SimlintOutput, FixSuppressionsPrintsExactAllowLine) {
  // Write a real file: the dry run re-reads the source to echo the line.
  const std::string path = testing::TempDir() + "/simlint_fix_src.cpp";
  {
    std::ofstream out(path);
    out << "int x = rand();\n";
  }
  // Two rules on one line must merge into a single allow comment.
  std::vector<Finding> findings = {{path, 1, "raw-random", "m"}, {path, 1, "wall-clock", "m"}};
  std::ostringstream os;
  simlint::print_fix_suppressions(os, findings);
  const std::string out = os.str();
  EXPECT_NE(out.find(path + ":1:"), std::string::npos);
  EXPECT_NE(out.find("- int x = rand();"), std::string::npos);
  EXPECT_NE(out.find("+ int x = rand();  // simlint:allow(raw-random,wall-clock)"),
            std::string::npos);
}

TEST(SimlintOutput, RuleListingIsComplete) {
  const auto& rules = simlint::rules();
  EXPECT_EQ(rules.size(), 10u);
}

}  // namespace
