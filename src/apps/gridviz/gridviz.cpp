#include "apps/gridviz/gridviz.hpp"

#include <array>
#include <memory>
#include <string>

#include "db/query.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::apps::gridviz {

using comp::CallContext;
using comp::ComponentKind;
using db::Query;
using db::Row;
using db::Value;
using sim::Task;

GridVizApp::GridVizApp(Shape shape, Calibration cal)
    : shape_(shape), cal_(cal), app_("gridviz"), meta_(build_metadata()) {
  define_components();
}

AppMetadata GridVizApp::build_metadata() {
  AppMetadata m;
  m.name = "gridviz";
  m.web_components = {"VizWeb"};
  m.stateful_session = {"SessionState"};  // per-analyst viewport/camera state
  m.edge_facades = {"SB_Catalog", "SB_FrameServer", "SB_Dashboard"};
  m.query_facades = {"SB_Catalog", "SB_FrameServer", "SB_Dashboard", "SB_Auth"};
  m.main_facades = {"SB_Steering"};
  m.entities = {"DatasetEJB", "FrameEJB", "ProbeEJB", "ReadingEJB", "OperatorEJB"};
  // Frames and datasets are written only by the (rare) simulation ingest;
  // probes are static descriptors. All are read-mostly.
  m.read_mostly = {"Dataset", "Frame", "Probe"};
  m.query_refresh = comp::QueryRefreshMode::kPush;  // live dashboards
  return m;
}

void GridVizApp::define_components() {
  auto& catalog = app_.define("SB_Catalog", ComponentKind::kStatelessSessionBean);
  catalog.method({.name = "listDatasets",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    auto res = co_await ctx.cached_query(Query::aggregate("all_datasets"));
                    ctx.result = std::move(res.rows);
                  }});
  catalog.method({.name = "getDataset",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    auto ds = co_await ctx.read_entity("Dataset", ctx.arg_int(0));
                    if (ds) ctx.result.push_back(std::move(ds));
                    auto probes = co_await ctx.cached_query(
                        Query::finder("probes", "dataset_id", ctx.arg(0)));
                    for (auto& r : probes.rows) ctx.result.push_back(std::move(r));
                  }});

  auto& frames = app_.define("SB_FrameServer", ComponentKind::kStatelessSessionBean);
  frames.method({.name = "getFrame",
                 .cpu = cal_.render_cpu,  // tile encode
                 .result_bytes = cal_.frame_tile_bytes,
                 .body = [](CallContext& ctx) -> Task<void> {
                   auto frame = co_await ctx.read_entity("Frame", ctx.arg_int(0));
                   if (frame) ctx.result.push_back(std::move(frame));
                 }});
  frames.method({.name = "getScrubStrip",
                 .cpu = cal_.ejb_cpu,
                 .body = [](CallContext& ctx) -> Task<void> {
                   auto res = co_await ctx.cached_query(
                       Query::finder("frames", "dataset_id", ctx.arg(0)));
                   ctx.result = std::move(res.rows);
                 }});

  auto& dash = app_.define("SB_Dashboard", ComponentKind::kStatelessSessionBean);
  dash.method({.name = "recentReadings",
               .cpu = cal_.ejb_cpu,
               .body = [](CallContext& ctx) -> Task<void> {
                 Query q = Query::aggregate("recent_readings", {ctx.arg(0)});
                 auto res = co_await ctx.cached_query(std::move(q));
                 ctx.result = std::move(res.rows);
               }});

  auto& auth = app_.define("SB_Auth", ComponentKind::kStatelessSessionBean);
  auth.method({.name = "authenticate",
               .cpu = cal_.ejb_cpu,
               .body = [](CallContext& ctx) -> Task<void> {
                 auto res = co_await ctx.cached_query(
                     Query::finder("operators", "login", ctx.arg(0)));
                 ctx.result = std::move(res.rows);
               }});

  // Steering and instrumentation writes stay with the repository.
  auto& steering = app_.define("SB_Steering", ComponentKind::kStatelessSessionBean);
  steering.method({.name = "setParameter",
                   .cpu = cal_.ejb_cpu,
                   .body = [](CallContext& ctx) -> Task<void> {
                     // Steering changes the dataset's control field; frame
                     // consumers see it via the pushed Dataset update.
                     co_await ctx.write_entity("Dataset", ctx.arg_int(0), "param",
                                               ctx.arg(1));
                   }});
  steering.method(
      {.name = "appendReadings",
       .cpu = cal_.ejb_cpu,
       .body = [](CallContext& ctx) -> Task<void> {
         const std::int64_t probe = ctx.arg_int(0);
         auto probe_row = co_await ctx.read_entity("Probe", probe);
         if (!probe_row) co_return;
         const std::int64_t dataset = db::as_int((*probe_row)[1]);
         std::vector<Query> affected{Query::aggregate("recent_readings", {Value{dataset}})};
         const std::int64_t id = ctx.allocate_id("readings");
         Row reading{id, probe, id, 42.0};
         co_await ctx.insert_row("Reading", std::move(reading), std::move(affected));
       }});

  auto& session = app_.define("SessionState", ComponentKind::kStatefulSessionBean);
  session.method({.name = "updateViewport", .cpu = sim::us(200)});

  for (const char* e :
       {"DatasetEJB", "FrameEJB", "ProbeEJB", "ReadingEJB", "OperatorEJB"}) {
    app_.define(e, ComponentKind::kEntityBeanRW).local_interface_only();
  }

  // ----- web tier --------------------------------------------------------------
  auto& web = app_.define("VizWeb", ComponentKind::kServlet);
  auto facade_page = [&](const char* name, sim::Duration latency, const char* bean,
                         const char* method, net::Bytes bytes) {
    const comp::MethodRef callee = app_.method_ref(bean, method);
    web.method({.name = name,
                .cpu = cal_.page_cpu,
                .latency = latency,
                .result_bytes = bytes,
                .body = [callee](CallContext& ctx) -> Task<void> {
                  // The servlet's context outlives the nested call: lend it
                  // the page's arguments.
                  comp::CallArgs lent = comp::CallArgs::borrow(ctx.args());
                  auto res = co_await ctx.call(callee, std::move(lent));
                  ctx.result = std::move(res.rows);
                }});
  };
  facade_page("catalog", cal_.catalog_latency, "SB_Catalog", "listDatasets", 5 * 1024);
  facade_page("dataset", cal_.dataset_latency, "SB_Catalog", "getDataset", 4 * 1024);
  web.method({.name = "frame",
              .cpu = cal_.page_cpu,
              .latency = cal_.frame_latency,
              .result_bytes = cal_.frame_tile_bytes,
              .body = [update_viewport = app_.method_ref("SessionState", "updateViewport"),
                       get_frame = app_.method_ref("SB_FrameServer", "getFrame")](
                          CallContext& ctx) -> Task<void> {
                (void)co_await ctx.call(update_viewport, {});
                auto res = co_await ctx.call(get_frame, ctx.arg(0));
                ctx.result = std::move(res.rows);
              }});
  facade_page("scrub", cal_.frame_latency, "SB_FrameServer", "getScrubStrip", 6 * 1024);
  facade_page("dashboard", cal_.dashboard_latency, "SB_Dashboard", "recentReadings", 4 * 1024);
  facade_page("auth", cal_.auth_latency, "SB_Auth", "authenticate", 2 * 1024);
  facade_page("steer", cal_.steer_latency, "SB_Steering", "setParameter", 2 * 1024);
  facade_page("append", cal_.append_latency, "SB_Steering", "appendReadings", 2 * 1024);
}

void GridVizApp::install_database(db::Database& db) const {
  using db::ColumnType;

  auto& datasets = db.create_table("datasets", {{"id", ColumnType::kInt},
                                                {"name", ColumnType::kText},
                                                {"frames", ColumnType::kInt},
                                                {"param", ColumnType::kReal}});
  auto& frames = db.create_table("frames", {{"id", ColumnType::kInt},
                                            {"dataset_id", ColumnType::kInt},
                                            {"timestep", ColumnType::kInt},
                                            {"bytes", ColumnType::kInt}});
  auto& probes = db.create_table("probes", {{"id", ColumnType::kInt},
                                            {"dataset_id", ColumnType::kInt},
                                            {"kind", ColumnType::kText}});
  auto& readings = db.create_table("readings", {{"id", ColumnType::kInt},
                                                {"probe_id", ColumnType::kInt},
                                                {"seq", ColumnType::kInt},
                                                {"value", ColumnType::kReal}});
  auto& operators = db.create_table("operators", {{"id", ColumnType::kInt},
                                                  {"login", ColumnType::kText},
                                                  {"clearance", ColumnType::kInt}});

  frames.create_index("dataset_id");
  probes.create_index("dataset_id");
  readings.create_index("probe_id");
  operators.create_index("login");

  std::int64_t reading_id = 0;
  for (std::int64_t d = 1; d <= shape_.datasets; ++d) {
    datasets.insert(Row{d, "run-" + std::to_string(d),
                        std::int64_t{shape_.frames_per_dataset}, 1.0});
    for (int f = 0; f < shape_.frames_per_dataset; ++f) {
      frames.insert(Row{shape_.frame_id(d, f), d, std::int64_t{f}, std::int64_t{48 * 1024}});
    }
    for (int p = 0; p < shape_.probes_per_dataset; ++p) {
      const std::int64_t pid = shape_.probe_id(d, p);
      probes.insert(Row{pid, d, std::string{"thermocouple"}});
      for (int r = 0; r < shape_.initial_readings_per_probe; ++r) {
        readings.insert(Row{++reading_id, pid, std::int64_t{r}, 20.0 + r});
      }
    }
  }
  for (std::int64_t o = 1; o <= shape_.operators; ++o) {
    operators.insert(Row{o, "op" + std::to_string(o), std::int64_t{2}});
  }

  db.register_aggregate("all_datasets", [](db::Database& d, const std::vector<Value>&) {
    return d.table("datasets").scan([](const Row&) { return true; });
  });
  db.register_aggregate(
      "recent_readings", [](db::Database& d, const std::vector<Value>& params) {
        // Latest readings across the dataset's probes (bounded window).
        const std::int64_t dataset = db::as_int(params.at(0));
        std::vector<db::RowRef> out;
        const db::Table& probes = d.table("probes");
        const db::Table& readings = d.table("readings");
        probes.for_each_equal("dataset_id", dataset, [&](const db::RowRef& probe) {
          // Keep only the last 10 readings per probe: walk the index,
          // remembering the tail in a ring of pointers to the handles.
          std::vector<const db::RowRef*> tail;
          std::size_t seen = 0;
          readings.for_each_equal("probe_id", (*probe)[0], [&](const db::RowRef& r) {
            if (tail.size() < 10) {
              tail.push_back(&r);
            } else {
              tail[seen % 10] = &r;
            }
            ++seen;
          });
          const std::size_t start = seen > 10 ? seen % 10 : 0;
          for (std::size_t i = 0; i < tail.size(); ++i) {
            out.push_back(*tail[(start + i) % tail.size()]);
          }
        });
        return out;
      });
}

void GridVizApp::bind_entities(comp::Runtime& rt) const {
  rt.bind_entity("Dataset", "datasets");
  rt.bind_entity("Frame", "frames");
  rt.bind_entity("Probe", "probes");
  rt.bind_entity("Reading", "readings");
  rt.bind_entity("Operator", "operators");
}

// --- usage patterns, one step function each -------------------------------------

namespace {

workload::PageRequest make_request(const char* pattern, std::string page, std::string method,
                                   std::vector<Value> args, net::Bytes response = 4 * 1024) {
  workload::PageRequest req;
  req.page = std::move(page);
  req.pattern = pattern;
  req.component = "VizWeb";
  req.method = std::move(method);
  req.args = std::move(args);
  req.response_bytes = response;
  return req;
}

/// Analyst: open the catalog, pick a run, scrub frames, watch dashboards.
/// scratch.w0 holds the current dataset, scratch.w1 the current timestep.
struct AnalystStep {
  Shape shape;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step >= static_cast<std::uint32_t>(GridVizApp::kAnalystSessionLength)) {
      return std::nullopt;
    }
    if (step == 0) return make_request("Analyst", "Catalog", "catalog", {});
    auto dataset = static_cast<std::int64_t>(scratch.w0);
    auto timestep = static_cast<int>(scratch.w1);
    static constexpr std::array<double, 4> kWeights = {10, 10, 55, 25};
    std::optional<workload::PageRequest> req;
    switch (rng.weighted_index(kWeights)) {
      case 0:
        req = make_request("Analyst", "Catalog", "catalog", {});
        break;
      case 1:
        dataset = rng.uniform_int(1, shape.datasets);
        timestep = 0;
        req = make_request("Analyst", "Dataset", "dataset", {Value{dataset}});
        break;
      case 2: {
        if (dataset == 0) dataset = rng.uniform_int(1, shape.datasets);
        // Scrubbing walks forward through the sequence (temporal locality).
        timestep = (timestep + static_cast<int>(rng.uniform_int(1, 3))) %
                   shape.frames_per_dataset;
        const std::int64_t frame = shape.frame_id(dataset, timestep);
        req = make_request("Analyst", "Frame", "frame", {Value{frame}}, 48 * 1024);
        break;
      }
      default:
        if (dataset == 0) dataset = rng.uniform_int(1, shape.datasets);
        req = make_request("Analyst", "Dashboard", "dashboard", {Value{dataset}});
        break;
    }
    scratch.w0 = static_cast<std::uint64_t>(dataset);
    scratch.w1 = static_cast<std::uint64_t>(timestep);
    return req;
  }
};

/// Operator: authenticate, steer the run, stream instrument readings.
/// scratch.w0 packs the operator (low) and dataset (high), scratch.w1 holds
/// the probe.
struct OperatorStep {
  Shape shape;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step == 0) {
      const std::int64_t op = rng.uniform_int(1, shape.operators);
      const std::int64_t dataset = rng.uniform_int(1, shape.datasets);
      scratch.w0 = workload::FsmScratch::pack(op, dataset);
      scratch.w1 = static_cast<std::uint64_t>(shape.probe_id(
          dataset, static_cast<int>(rng.uniform_int(0, shape.probes_per_dataset - 1))));
    }
    const std::int64_t dataset = workload::FsmScratch::high(scratch.w0);
    const auto probe = static_cast<std::int64_t>(scratch.w1);
    switch (step) {
      case 0: {
        const std::string login = "op" + std::to_string(workload::FsmScratch::low(scratch.w0));
        return make_request("Operator", "Auth", "auth", {Value{login}});
      }
      case 1:
        return make_request("Operator", "Steer", "steer",
                            {Value{dataset}, Value{rng.uniform(0.1, 9.9)}});
      case 2: return make_request("Operator", "Append", "append", {Value{probe}});
      case 3: return make_request("Operator", "Dashboard", "dashboard", {Value{dataset}});
      case 4: return make_request("Operator", "Append", "append", {Value{probe}});
      case 5: return make_request("Operator", "Dashboard", "dashboard", {Value{dataset}});
      default: return std::nullopt;
    }
  }
};

}  // namespace

workload::SessionFactory GridVizApp::analyst_factory(sim::RngStream rng) const {
  return workload::step_factory("Analyst", AnalystStep{shape_}, std::move(rng));
}

workload::SessionFactory GridVizApp::operator_factory(sim::RngStream rng) const {
  return workload::step_factory("Operator", OperatorStep{shape_}, std::move(rng));
}

std::vector<std::pair<std::string, std::string>> GridVizApp::table_pages() {
  return {{"Analyst", "Catalog"},   {"Analyst", "Dataset"},   {"Analyst", "Frame"},
          {"Analyst", "Dashboard"}, {"Operator", "Auth"},     {"Operator", "Steer"},
          {"Operator", "Append"},   {"Operator", "Dashboard"}};
}

AppDriver GridVizApp::driver() const {
  AppDriver d;
  d.name = "GridViz";
  d.app = &app_;
  d.meta = &meta_;
  d.install_database = [this](db::Database& db) { install_database(db); };
  d.bind_entities = [this](comp::Runtime& rt) { bind_entities(rt); };
  d.browser_factory = [this](sim::RngStream rng) { return analyst_factory(std::move(rng)); };
  d.writer_factory = [this](sim::RngStream rng) { return operator_factory(std::move(rng)); };
  // GridViz has no item-popularity model; the Zipf exponent is ignored.
  d.fsm_browser_model = [this](double) {
    return workload::step_model("Analyst", AnalystStep{shape_});
  };
  d.fsm_writer_model = [this](double) {
    return workload::step_model("Operator", OperatorStep{shape_});
  };
  d.table_pages = table_pages();
  d.browser_pattern = "Analyst";
  d.writer_pattern = "Operator";
  d.db_colocated = true;  // the repository lives with the main processing site
  return d;
}

}  // namespace mutsvc::apps::gridviz
