// Golden byte-identity for the runtime-placement machinery (ISSUE 10): with
// placement *enabled* but idle — no policy installed, canary fraction 0, no
// migrations requested — every figure-7/8 ladder rung must stay bit-identical
// to the seed goldens. The versioned binding table sits on the dispatch path
// of every RMI, so this suite is what guards the refactor: an idle binding
// lookup must never perturb the event trajectory or any response summary.
//
// The constants below are the *same* rows shard_golden_test.cpp pins for the
// placement-disabled run; sharing them asserts disabled == enabled-but-idle,
// byte for byte. Runs under plain ctest and MUTSVC_SIMCHECK=1 (CI matrix rows
// over the `migration` label).
//
// Regenerating (only legitimate after an intentional simulation change —
// and then shard_golden_test.cpp must be updated to the identical rows):
//   MUTSVC_GOLDEN_PRINT=1 ./build/tests/placement_runtime_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "component/binding.hpp"
#include "component/migration.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"

namespace mutsvc::core {
namespace {

using stats::ClientGroup;

struct GoldenCase {
  const char* app;
  ConfigLevel level;
  std::uint64_t events;   // Simulator::executed_events() — exact
  std::uint64_t samples;  // post-warm-up page samples — exact
  std::uint64_t digest;   // FNV-1a over the pattern-mean bit patterns
};

apps::AppDriver make_driver(const char* app) {
  if (std::strcmp(app, "petstore") == 0) {
    static apps::petstore::PetStoreApp petstore;
    return petstore.driver();
  }
  static apps::rubis::RubisApp rubis;
  return rubis.driver();
}

HarnessCalibration calibration_for(const char* app) {
  return std::strcmp(app, "petstore") == 0 ? petstore_calibration() : rubis_calibration();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
  std::uint64_t digest = 0;
};

Fingerprint run_case(const char* app, ConfigLevel level) {
  apps::AppDriver driver = make_driver(app);
  ExperimentSpec spec;
  spec.level = level;
  spec.duration = sim::sec(180);
  spec.warmup = sim::sec(30);
  spec.placement.enabled = true;  // binding table live, no policy, canary 0
  Experiment exp{driver, spec, calibration_for(app)};
  exp.run();

  // Idle machinery must have stayed idle: nothing bound, nothing flipped,
  // nothing forwarded, nothing migrated.
  EXPECT_NE(exp.bindings(), nullptr);
  EXPECT_EQ(exp.bindings()->bound_components(), 0u);
  EXPECT_EQ(exp.bindings()->flips(), 0u);
  EXPECT_NE(exp.migrator(), nullptr);
  EXPECT_EQ(exp.migrator()->started(), 0u);
  EXPECT_EQ(exp.runtime().forwarded_calls(), 0u);
  EXPECT_EQ(exp.runtime().late_stragglers(), 0u);

  Fingerprint fp;
  fp.events = exp.simulator().executed_events();
  fp.samples = exp.results().total_samples();
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& pattern : {driver.browser_pattern, driver.writer_pattern}) {
    for (ClientGroup g : {ClientGroup::kLocal, ClientGroup::kRemote}) {
      h = digest_double(h, exp.results().pattern_mean_ms(pattern, g));
    }
  }
  h = fnv1a(h, exp.results().failures());
  h = fnv1a(h, exp.results().discarded_samples());
  fp.digest = h;
  return fp;
}

const char* level_name(ConfigLevel level) {
  switch (level) {
    case ConfigLevel::kCentralized: return "ConfigLevel::kCentralized";
    case ConfigLevel::kRemoteFacade: return "ConfigLevel::kRemoteFacade";
    case ConfigLevel::kStatefulComponentCaching: return "ConfigLevel::kStatefulComponentCaching";
    case ConfigLevel::kQueryCaching: return "ConfigLevel::kQueryCaching";
    case ConfigLevel::kAsyncUpdates: return "ConfigLevel::kAsyncUpdates";
  }
  return "?";
}

// The seed ladder goldens — identical to shard_golden_test.cpp's table by
// construction: an enabled-but-idle placement runtime is byte-equivalent to
// a disabled one.
const GoldenCase kGolden[] = {
    {"petstore", ConfigLevel::kCentralized, 181763ULL, 4422ULL, 4317317305918343935ULL},
    {"petstore", ConfigLevel::kRemoteFacade, 141198ULL, 4422ULL, 7989329386871995858ULL},
    {"petstore", ConfigLevel::kStatefulComponentCaching, 138706ULL, 4423ULL,
     1466430520844280574ULL},
    {"petstore", ConfigLevel::kQueryCaching, 120781ULL, 4423ULL, 2079169118363118974ULL},
    {"petstore", ConfigLevel::kAsyncUpdates, 120464ULL, 4423ULL, 3912069136437442181ULL},
    {"rubis", ConfigLevel::kCentralized, 112830ULL, 4466ULL, 16537404889437813069ULL},
    {"rubis", ConfigLevel::kRemoteFacade, 117483ULL, 4462ULL, 2637170168998258272ULL},
    {"rubis", ConfigLevel::kStatefulComponentCaching, 120936ULL, 4463ULL,
     2679123475190041252ULL},
    {"rubis", ConfigLevel::kQueryCaching, 114191ULL, 4459ULL, 18243552940219614127ULL},
    {"rubis", ConfigLevel::kAsyncUpdates, 113041ULL, 4460ULL, 4346410618843474633ULL},
};

class PlacementRuntimeGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(PlacementRuntimeGoldenTest, IdlePlacementRuntimeMatchesSeedGoldens) {
  const GoldenCase& g = GetParam();
  const Fingerprint fp = run_case(g.app, g.level);
  if (std::getenv("MUTSVC_GOLDEN_PRINT") != nullptr) {
    std::printf("    {\"%s\", %s, %lluULL, %lluULL, %lluULL},\n", g.app, level_name(g.level),
                static_cast<unsigned long long>(fp.events),
                static_cast<unsigned long long>(fp.samples),
                static_cast<unsigned long long>(fp.digest));
    return;
  }
  EXPECT_EQ(fp.events, g.events)
      << g.app << " " << level_name(g.level)
      << ": enabling the (idle) placement runtime perturbed the event trajectory";
  EXPECT_EQ(fp.samples, g.samples) << g.app << " " << level_name(g.level);
  EXPECT_EQ(fp.digest, g.digest)
      << g.app << " " << level_name(g.level)
      << ": enabling the (idle) placement runtime perturbed the response summaries";
}

std::string case_name(const GoldenCase& g) {
  std::string level = level_name(g.level);
  return std::string(g.app) + "_" + level.substr(level.find("::k") + 3);
}

// gtest would otherwise print the struct as a byte dump of its pointers,
// which address-space randomization changes on every run; the dump lands
// in the ctest test names, so they would differ from build to build.
void PrintTo(const GoldenCase& g, std::ostream* os) { *os << case_name(g); }

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Ladder, PlacementRuntimeGoldenTest, ::testing::ValuesIn(kGolden),
                         golden_name);

}  // namespace
}  // namespace mutsvc::core
