// Generality check G1 (§6): "the identified application design rules are of
// equal importance for interactive scientific grid-based applications".
// Runs the GridViz application — frame scrubbing, live instrument
// dashboards, computational steering — through the same five-configuration
// ladder, untouched.
#include <iostream>

#include "apps/gridviz/gridviz.hpp"
#include "bench/table_common.hpp"

int main() {
  using namespace mutsvc;

  std::cout << "=== G1: the design-rule ladder on a grid visualization service ===\n\n";

  apps::gridviz::GridVizApp app;
  apps::AppDriver driver = app.driver();
  core::HarnessCalibration cal;
  cal.rmi.extra_rtt_prob = 0.5;
  cal.runtime.jms_accept = sim::ms(2);

  bench::LadderRun run = bench::run_ladder(driver, cal, bench::base_spec());
  core::print_paper_table(std::cout, driver, run.results);
  std::cout << "\n";
  core::print_session_averages(std::cout, driver, run.results);

  // WAN bytes: frame tiles dominate; edge replicas of Frame should slash
  // wide-area traffic, not just latency.
  std::cout << "\nWAN traffic (MB over the run):\n";
  for (std::size_t i = 0; i < run.experiments.size(); ++i) {
    std::cout << "  " << core::to_string(run.results[i].level) << ": "
              << run.experiments[i]->network().wan_bytes_sent() / (1024 * 1024) << " MB\n";
  }

  std::cout << "\nShape checks: analysts (frame scrubbing + dashboards) behave like the\n"
            << "e-commerce browsers — centralized +400 ms, fully edge-local by the\n"
            << "query-caching rung; operators behave like buyers/bidders — blocking\n"
            << "push penalizes steering and instrument appends, asynchronous updates\n"
            << "restore them. Frame-tile WAN traffic collapses once frames are served\n"
            << "from edge replicas (the 'caching and distilling' role that Active\n"
            << "Frames/MOSS-style wrappers play in §6's related work).\n";
  return 0;
}
