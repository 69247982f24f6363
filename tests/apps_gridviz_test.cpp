#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/gridviz/gridviz.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::apps::gridviz {
namespace {

using comp::ComponentKind;

struct Fixture {
  GridVizApp app;
  sim::Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId dbnode = topo.add_node("db", net::NodeRole::kDatabaseServer);
  db::Database db{topo, dbnode};

  Fixture() { app.install_database(db); }
};

TEST(GridVizAppTest, Section6ArchitecturePresent) {
  GridVizApp app;
  const auto& a = app.application();
  // §6: client-side visualization, server-side processing, back-end
  // repository of structured data.
  EXPECT_EQ(a.component("VizWeb").kind(), ComponentKind::kServlet);
  EXPECT_EQ(a.component("SB_FrameServer").kind(), ComponentKind::kStatelessSessionBean);
  EXPECT_EQ(a.component("SB_Steering").kind(), ComponentKind::kStatelessSessionBean);
  EXPECT_EQ(a.component("SessionState").kind(), ComponentKind::kStatefulSessionBean);
  for (const char* e : {"DatasetEJB", "FrameEJB", "ProbeEJB", "ReadingEJB"}) {
    EXPECT_TRUE(a.component(e).is_local_only()) << e;
  }
}

TEST(GridVizAppTest, MetadataKeepsWritersCentral) {
  GridVizApp app;
  const AppMetadata& m = app.metadata();
  ASSERT_EQ(m.main_facades.size(), 1u);
  EXPECT_EQ(m.main_facades[0], "SB_Steering");
  EXPECT_EQ(std::set<std::string>(m.read_mostly.begin(), m.read_mostly.end()),
            (std::set<std::string>{"Dataset", "Frame", "Probe"}));
  // Readings are append-only live data: no read-only replicas; dashboards
  // are covered by the pushed query cache instead.
  for (const auto& e : m.read_mostly) EXPECT_NE(e, "Reading");
}

TEST(GridVizAppTest, RepositoryPopulation) {
  Fixture f;
  const Shape& s = f.app.shape();
  EXPECT_EQ(f.db.table("datasets").row_count(), static_cast<std::size_t>(s.datasets));
  EXPECT_EQ(f.db.table("frames").row_count(),
            static_cast<std::size_t>(s.datasets * s.frames_per_dataset));
  EXPECT_EQ(f.db.table("probes").row_count(),
            static_cast<std::size_t>(s.datasets * s.probes_per_dataset));
  EXPECT_EQ(f.db.table("readings").row_count(),
            static_cast<std::size_t>(s.datasets * s.probes_per_dataset *
                                     s.initial_readings_per_probe));
}

TEST(GridVizAppTest, RecentReadingsAggregateBoundedWindow) {
  Fixture f;
  auto res =
      f.db.execute_immediate(db::Query::aggregate("recent_readings", {std::int64_t{3}}));
  // 4 probes x min(20, 10) readings.
  EXPECT_EQ(res.rows.size(), 40u);
  for (const auto& r : res.rows) {
    auto probe = f.db.table("probes").get(db::as_int((*r)[1]));
    ASSERT_TRUE(probe);
    EXPECT_EQ(db::as_int((*probe)[1]), 3);
  }
}

TEST(GridVizSessionTest, AnalystScrubsForwardWithinOneDataset) {
  GridVizApp app;
  const Shape& s = app.shape();
  auto factory = app.analyst_factory(sim::RngStream{3});
  for (int i = 0; i < 20; ++i) {
    auto session = factory();
    std::int64_t dataset = 0;
    int count = 0;
    while (auto req = session->next()) {
      ++count;
      EXPECT_EQ(req->pattern, "Analyst");
      if (req->page == "Dataset") dataset = db::as_int(req->args.at(0));
      if (req->page == "Frame" && dataset != 0) {
        const std::int64_t frame = db::as_int(req->args.at(0));
        EXPECT_EQ(frame / 1000, dataset);  // frame belongs to the open run
        EXPECT_LE(frame % 1000, static_cast<std::int64_t>(s.frames_per_dataset));
      }
      if (req->page == "Frame") {
        EXPECT_EQ(req->response_bytes, 48 * 1024);  // tile payload
      }
    }
    EXPECT_EQ(count, GridVizApp::kAnalystSessionLength);
  }
}

TEST(GridVizSessionTest, OperatorSteersTheProbesDataset) {
  GridVizApp app;
  auto factory = app.operator_factory(sim::RngStream{5});
  auto session = factory();
  std::vector<std::string> pages;
  std::int64_t steered_dataset = 0;
  std::int64_t probe = 0;
  while (auto req = session->next()) {
    pages.push_back(req->page);
    if (req->page == "Steer") steered_dataset = db::as_int(req->args.at(0));
    if (req->page == "Append") probe = db::as_int(req->args.at(0));
  }
  EXPECT_EQ(pages, (std::vector<std::string>{"Auth", "Steer", "Append", "Dashboard", "Append",
                                             "Dashboard"}));
  EXPECT_EQ(probe / 100, steered_dataset);  // probes belong to the steered run
}

TEST(GridVizExperimentTest, LadderShapesHold) {
  GridVizApp app;
  core::HarnessCalibration cal;

  auto run = [&](core::ConfigLevel level) {
    core::ExperimentSpec spec;
    spec.level = level;
    spec.duration = sim::sec(500);
    spec.warmup = sim::sec(100);
    auto exp = std::make_unique<core::Experiment>(app.driver(), spec, cal);
    exp->run();
    return exp;
  };

  auto centralized = run(core::ConfigLevel::kCentralized);
  auto final_cfg = run(core::ConfigLevel::kAsyncUpdates);

  using stats::ClientGroup;
  // Analysts: centralized remote pays the WAN; final configuration is
  // near-local.
  const double c_remote = centralized->results().pattern_mean_ms("Analyst", ClientGroup::kRemote);
  const double f_remote = final_cfg->results().pattern_mean_ms("Analyst", ClientGroup::kRemote);
  EXPECT_GT(c_remote, 380.0);
  EXPECT_LT(f_remote, 100.0);

  // Frame tiles stop crossing the WAN: traffic drops by an order of
  // magnitude (the data-distillation effect of edge replicas).
  EXPECT_LT(final_cfg->network().wan_bytes_sent() * 10,
            centralized->network().wan_bytes_sent());

  // Zero staleness would hold under blocking push; async trades it away but
  // replicas converge (quiescent at end of run).
  EXPECT_TRUE(final_cfg->runtime().updates_quiescent());
}

TEST(GridVizAppTest, DriverComplete) {
  GridVizApp app;
  AppDriver d = app.driver();
  EXPECT_EQ(d.browser_pattern, "Analyst");
  EXPECT_EQ(d.writer_pattern, "Operator");
  EXPECT_TRUE(d.db_colocated);
  EXPECT_EQ(d.table_pages.size(), 8u);
}

}  // namespace
}  // namespace mutsvc::apps::gridviz
