#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/common/metadata.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "db/database.hpp"
#include "sim/random.hpp"
#include "workload/session.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::apps {

/// Uniform handle the experiment harness uses to drive an application.
/// PetStoreApp, RubisApp and GridVizApp produce one via their `driver()`
/// method.
///
/// Each usage pattern is one step function (workload/session_fsm.hpp); the
/// two factories replay it on the coroutine driver (step_factory) and the
/// two models on the FSM engine (step_model).
struct AppDriver {
  std::string name;
  const comp::Application* app = nullptr;
  const AppMetadata* meta = nullptr;
  std::function<void(db::Database&)> install_database;
  std::function<void(comp::Runtime&)> bind_entities;
  std::function<workload::SessionFactory(sim::RngStream)> browser_factory;
  std::function<workload::SessionFactory(sim::RngStream)> writer_factory;
  /// FSM script models for the million-session load engine (DESIGN §16),
  /// parameterized by the Zipf item-popularity exponent (0 = uniform; apps
  /// without a popularity model ignore it). A driver that leaves these
  /// unset is refused by ExperimentSpec::fsm_load.
  std::function<std::shared_ptr<const workload::FsmScriptModel>(double zipf_s)>
      fsm_browser_model;
  std::function<std::shared_ptr<const workload::FsmScriptModel>(double zipf_s)>
      fsm_writer_model;
  std::vector<std::pair<std::string, std::string>> table_pages;  // (pattern, page)
  std::string browser_pattern = "Browser";  // the read-only usage pattern
  std::string writer_pattern;               // "Buyer", "Bidder", "Operator", ...
  /// §3.1: the RUBiS database ran on the main application server itself;
  /// Pet Store's Oracle ran on a separate workstation on the same LAN.
  bool db_colocated = false;
};

}  // namespace mutsvc::apps
