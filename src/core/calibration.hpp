#pragma once

#include "component/runtime.hpp"
#include "core/testbed.hpp"
#include "db/database.hpp"
#include "net/http.hpp"
#include "net/rmi.hpp"

namespace mutsvc::core {

/// Everything tuned to reproduce the paper's testbed behaviour in one
/// place. Per-page demands live with the applications
/// (apps::petstore::Calibration / apps::rubis::Calibration); this struct
/// holds the infrastructure-level constants shared by all pages.
struct HarnessCalibration {
  /// An Experiment takes the database placement (`db_colocated`) from the
  /// application's driver, not from here: §3.1 ties it to the application
  /// (Oracle on its own workstation for Pet Store, MySQL on the main server
  /// for RUBiS).
  TestbedConfig testbed;
  net::HttpConfig http;    // keep-alive off (§4.1)
  net::RmiConfig rmi;      // extra round trips + DGC traffic (§4.2)
  comp::RuntimeConfig runtime;
  db::DbCostModel db_cost;

  /// Container request threads per application server. Must comfortably
  /// cover requests that hold a thread across a WAN façade call; the
  /// paper's JBoss thread pools were never the bottleneck.
  std::size_t container_threads = 24;
};

/// Pet Store ran against JBoss 2.4.4/Jetty 3.1.3 with Oracle on a separate
/// workstation (§3.1); heavier pages, pull-based query refresh, and a
/// JMS provider whose publish path costs tens of milliseconds.
[[nodiscard]] inline HarnessCalibration petstore_calibration() {
  HarnessCalibration cal;
  cal.rmi.extra_rtt_prob = 0.5;       // §4.2: RMI ping / DGC round trips
  cal.rmi.dgc_traffic_factor = 2.0;   // §4.3: >half of RMI traffic is DGC
  cal.runtime.jdbc.fetch_size = 8;
  cal.runtime.jms_accept = sim::ms(48);  // persistent-topic publish cost
  return cal;
}

/// RUBiS ran against JBoss 3.0.3/Jetty 4.1.0 with MySQL co-located on the
/// main server (§3.1); a much lighter container generation.
[[nodiscard]] inline HarnessCalibration rubis_calibration() {
  HarnessCalibration cal;
  cal.rmi.extra_rtt_prob = 0.5;
  cal.rmi.dgc_traffic_factor = 2.0;
  cal.runtime.jdbc.fetch_size = 16;
  cal.runtime.jms_accept = sim::ms(2);
  return cal;
}

}  // namespace mutsvc::core
