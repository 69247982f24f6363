// mutsvc_run — command-line experiment runner.
//
//   mutsvc_run <petstore|rubis|gridviz> [options]
//
//   --level <1..5|name>     configuration rung (default 5 = async updates)
//   --descriptor <file>     deploy from an extended deployment descriptor
//                           (overrides --level)
//   --emit-descriptor       print the rung's deployment descriptor and exit
//   --duration <seconds>    simulated run length   (default 900)
//   --warmup <seconds>      warm-up to discard     (default 120)
//   --rate <req/s>          combined offered load  (default 30)
//   --seed <n>              RNG seed               (default 42)
//   --sessions              print session averages instead of the page table
//   --utilization           also print per-server CPU utilization
//   --metrics               also print per-node metrics (counters, cache and
//                           topic gauges, latency histogram, time series)
//
// Examples:
//   mutsvc_run rubis --level 3
//   mutsvc_run petstore --emit-descriptor --level 5 > plan.desc
//   mutsvc_run petstore --descriptor plan.desc --sessions
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/gridviz/gridviz.hpp"
#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "component/descriptor.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

using namespace mutsvc;

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: mutsvc_run <petstore|rubis|gridviz> [--level 1..5] "
               "[--descriptor file] [--emit-descriptor] [--duration s] [--warmup s] "
               "[--rate r] [--seed n] [--sessions] [--utilization] [--metrics]\n";
  std::exit(error != nullptr ? 2 : 0);
}

core::ConfigLevel parse_level(const std::string& s) {
  if (s == "1" || s == "centralized") return core::ConfigLevel::kCentralized;
  if (s == "2" || s == "facade" || s == "remote-facade") return core::ConfigLevel::kRemoteFacade;
  if (s == "3" || s == "caching" || s == "stateful-component-caching") {
    return core::ConfigLevel::kStatefulComponentCaching;
  }
  if (s == "4" || s == "query-caching") return core::ConfigLevel::kQueryCaching;
  if (s == "5" || s == "async" || s == "asynchronous-updates") {
    return core::ConfigLevel::kAsyncUpdates;
  }
  usage("unknown --level value");
}

struct Options {
  std::string app;
  core::ConfigLevel level = core::ConfigLevel::kAsyncUpdates;
  std::string descriptor_file;
  bool emit_descriptor = false;
  double duration_s = 900;
  double warmup_s = 120;
  double rate = 30;
  std::uint64_t seed = 42;
  bool sessions = false;
  bool utilization = false;
  bool metrics = false;
};

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing application name");
  Options opt;
  opt.app = argv[1];
  if (opt.app == "-h" || opt.app == "--help") usage();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--level") {
      opt.level = parse_level(value());
    } else if (arg == "--descriptor") {
      opt.descriptor_file = value();
    } else if (arg == "--emit-descriptor") {
      opt.emit_descriptor = true;
    } else if (arg == "--duration") {
      opt.duration_s = std::stod(value());
    } else if (arg == "--warmup") {
      opt.warmup_s = std::stod(value());
    } else if (arg == "--rate") {
      opt.rate = std::stod(value());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--sessions") {
      opt.sessions = true;
    } else if (arg == "--utilization") {
      opt.utilization = true;
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "-h" || arg == "--help") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return opt;
}

int run_with(const apps::AppDriver& driver, const core::HarnessCalibration& cal,
             const Options& opt) {
  core::ExperimentSpec spec;
  spec.level = opt.level;
  spec.duration = sim::Duration::seconds(opt.duration_s);
  spec.warmup = sim::Duration::seconds(opt.warmup_s);
  spec.total_request_rate = opt.rate;
  spec.seed = opt.seed;

  if (!opt.descriptor_file.empty()) {
    std::ifstream in{opt.descriptor_file};
    if (!in) {
      std::cerr << "error: cannot read " << opt.descriptor_file << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // Node names must resolve against a topology; the testbed builder is
    // deterministic, so a probe experiment's topology assigns the same node
    // ids the real run will use.
    core::ExperimentSpec probe_spec = spec;
    probe_spec.custom_plan = nullptr;
    core::Experiment probe{driver, probe_spec, cal};
    comp::DeploymentPlan plan = comp::parse_descriptor(text, probe.network().topology());
    spec.custom_plan = [plan](const core::TestbedNodes&) { return plan; };
  }

  if (opt.emit_descriptor) {
    core::ExperimentSpec probe_spec = spec;
    probe_spec.custom_plan = nullptr;
    core::Experiment probe{driver, probe_spec, cal};
    std::cout << comp::serialize_descriptor(probe.runtime().plan(),
                                            probe.network().topology());
    return 0;
  }

  core::Experiment exp{driver, spec, cal};
  if (opt.metrics) exp.enable_metrics(sim::sec(60));
  if (!opt.descriptor_file.empty()) {
    std::cout << "deployment: " << opt.descriptor_file << " (descriptor-driven)\n";
  }
  std::cerr << "running " << driver.name << " / "
            << (opt.descriptor_file.empty() ? core::to_string(opt.level) : "custom descriptor")
            << " for "
            << opt.duration_s << "s simulated (seed " << opt.seed << ")...\n";
  exp.run();

  std::vector<core::ConfigResult> results{{opt.level, &exp.results()}};
  if (opt.sessions) {
    core::print_session_averages(std::cout, driver, results);
  } else {
    core::print_paper_table(std::cout, driver, results);
  }
  if (opt.utilization) {
    const auto& n = exp.nodes();
    std::cout << "\nCPU utilization: main "
              << static_cast<int>(exp.cpu_utilization(n.main_server) * 100) << "%";
    for (std::size_t i = 0; i < n.edge_servers.size(); ++i) {
      std::cout << ", edge" << i + 1 << " "
                << static_cast<int>(exp.cpu_utilization(n.edge_servers[i]) * 100) << "%";
    }
    if (n.db_node != n.main_server) {
      std::cout << ", db " << static_cast<int>(exp.cpu_utilization(n.db_node) * 100) << "%";
    }
    std::cout << "\n";
  }
  if (opt.metrics) {
    std::cout << "\n";
    core::print_all_metrics(std::cout, exp.runtime().metrics_by_node(),
                            exp.network().topology());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);

  if (opt.app == "petstore") {
    apps::petstore::PetStoreApp app;
    return run_with(app.driver(), core::petstore_calibration(), opt);
  }
  if (opt.app == "rubis") {
    apps::rubis::RubisApp app;
    return run_with(app.driver(), core::rubis_calibration(), opt);
  }
  if (opt.app == "gridviz") {
    apps::gridviz::GridVizApp app;
    return run_with(app.driver(), core::HarnessCalibration{}, opt);
  }
  usage(("unknown application " + opt.app).c_str());
}
