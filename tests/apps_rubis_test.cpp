#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/rubis/rubis.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::apps::rubis {
namespace {

using comp::ComponentKind;

struct Fixture {
  RubisApp app;
  sim::Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId dbnode = topo.add_node("db", net::NodeRole::kDatabaseServer);
  db::Database db{topo, dbnode};

  Fixture() { app.install_database(db); }
};

// --- component architecture ------------------------------------------------------

TEST(RubisAppTest, SessionFacadeArchitecture) {
  RubisApp app;
  const auto& a = app.application();
  // §2.2: "for each type of web page there is a separate servlet which ...
  // invokes business method(s) on associated stateless session bean(s)".
  for (const char* sb : {"SB_BrowseCategories", "SB_BrowseRegions", "SB_SearchItemsByCategory",
                         "SB_SearchItemsByRegion", "SB_ViewItem", "SB_ViewBidHistory",
                         "SB_ViewUserInfo", "SB_Auth", "SB_PutBid", "SB_StoreBid",
                         "SB_PutComment", "SB_StoreComment"}) {
    EXPECT_EQ(a.component(sb).kind(), ComponentKind::kStatelessSessionBean) << sb;
  }
  // §2.2: "the application does not keep per-client session state" — no
  // stateful session beans at all.
  for (const auto& name : a.component_names()) {
    EXPECT_NE(a.component(name).kind(), ComponentKind::kStatefulSessionBean) << name;
  }
}

TEST(RubisAppTest, MetadataMatchesPaper) {
  RubisApp app;
  const AppMetadata& m = app.metadata();
  EXPECT_TRUE(m.stateful_session.empty());  // §4.2: only web components to edges
  EXPECT_EQ(std::set<std::string>(m.read_mostly.begin(), m.read_mostly.end()),
            (std::set<std::string>{"Item", "User"}));  // §4.3
  EXPECT_EQ(m.query_refresh, comp::QueryRefreshMode::kPush);  // §4.4
  EXPECT_EQ(std::set<std::string>(m.edge_facades.begin(), m.edge_facades.end()),
            (std::set<std::string>{"SB_ViewItem", "SB_ViewBidHistory", "SB_ViewUserInfo"}));
  // Writers stay at the main server.
  EXPECT_EQ(std::set<std::string>(m.main_facades.begin(), m.main_facades.end()),
            (std::set<std::string>{"SB_StoreBid", "SB_StoreComment"}));
}

TEST(RubisAppTest, EveryTable4And5PageHasAMethod) {
  RubisApp app;
  const auto& web = app.application().component("RubisWeb");
  for (const char* m : {"main", "browse", "allcategories", "allregions", "region", "category",
                        "categoryregion", "item", "bids", "userinfo", "putbidauth",
                        "putbidform", "storebid", "putcommentauth", "putcommentform",
                        "storecomment"}) {
    EXPECT_NO_THROW((void)web.find_method(m)) << m;
  }
}

// --- database (§3.4 sizing) ---------------------------------------------------------

TEST(RubisAppTest, DatabasePopulation) {
  Fixture f;
  const Shape& s = f.app.shape();
  EXPECT_EQ(f.db.table("regions").row_count(), static_cast<std::size_t>(s.regions));
  EXPECT_EQ(f.db.table("categories").row_count(), static_cast<std::size_t>(s.categories));
  EXPECT_EQ(f.db.table("users").row_count(), static_cast<std::size_t>(s.users));
  EXPECT_EQ(f.db.table("items").row_count(), static_cast<std::size_t>(s.items));
  EXPECT_EQ(f.db.table("bids").row_count(),
            static_cast<std::size_t>(s.items * s.initial_bids_per_item));
  EXPECT_EQ(f.db.table("comments").row_count(),
            static_cast<std::size_t>(s.users * s.initial_comments_per_user));
}

TEST(RubisAppTest, AggregatesRegisteredAndConsistent) {
  Fixture f;
  EXPECT_EQ(f.db.execute_immediate(db::Query::aggregate("all_categories")).rows.size(), 20u);
  EXPECT_EQ(f.db.execute_immediate(db::Query::aggregate("all_regions")).rows.size(), 20u);

  // items_in_category_region returns exactly the items whose seller lives
  // in the region.
  auto res = f.db.execute_immediate(
      db::Query::aggregate("items_in_category_region", {std::int64_t{3}, std::int64_t{5}}));
  for (const auto& item : res.rows) {
    EXPECT_EQ(db::as_int((*item)[2]), 3);  // category
    auto seller = f.db.table("users").get(db::as_int((*item)[3]));
    ASSERT_TRUE(seller);
    EXPECT_EQ(db::as_int((*seller)[3]), 5);  // region
  }
}

TEST(RubisAppTest, AuthFinderMatchesNickname) {
  Fixture f;
  auto res = f.db.execute_immediate(
      db::Query::finder("users", "nickname", std::string{"user42"}));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(db::as_int((*res.rows[0])[0]), 42);
}

// --- session scripts (Tables 4 and 5) -------------------------------------------------

TEST(RubisSessionTest, BrowserSessionLengthAndLogicalOrdering) {
  RubisApp app;
  auto factory = app.browser_factory(sim::RngStream{9});
  auto session = factory();
  int count = 0;
  bool first = true;
  std::int64_t last_category = 0;
  const Shape& s = app.shape();
  while (auto req = session->next()) {
    if (first) {
      EXPECT_EQ(req->page, "Main");
      first = false;
    }
    if (req->page == "Category" || req->page == "Category & Region") {
      last_category = db::as_int(req->args.at(0));
    }
    if (req->page == "Item" && last_category != 0) {
      // The picked item belongs to the last browsed category.
      EXPECT_EQ(s.item_category(db::as_int(req->args.at(0))), last_category);
    }
    ++count;
  }
  EXPECT_EQ(count, RubisApp::kBrowserSessionLength);
}

TEST(RubisSessionTest, BrowserMixApproximatesTable4) {
  RubisApp app;
  auto factory = app.browser_factory(sim::RngStream{17});
  std::map<std::string, int> counts;
  int total = 0;
  for (int s = 0; s < 400; ++s) {
    auto session = factory();
    while (auto req = session->next()) {
      ++counts[req->page];
      ++total;
    }
  }
  auto frac = [&](const char* page) {
    return static_cast<double>(counts[page]) / static_cast<double>(total);
  };
  EXPECT_NEAR(frac("Item"), 0.425, 0.03);
  EXPECT_NEAR(frac("Bids"), 0.15, 0.02);
  EXPECT_NEAR(frac("User Info"), 0.15, 0.02);
  EXPECT_NEAR(frac("Category"), 0.075, 0.02);
  EXPECT_NEAR(frac("Category & Region"), 0.075, 0.02);
}

TEST(RubisSessionTest, BidderSessionIsTheFixedTable5Scenario) {
  RubisApp app;
  auto factory = app.bidder_factory(sim::RngStream{23});
  auto session = factory();
  std::vector<std::string> pages;
  while (auto req = session->next()) {
    EXPECT_EQ(req->pattern, "Bidder");
    pages.push_back(req->page);
  }
  EXPECT_EQ(pages, (std::vector<std::string>{"Main", "Put Bid Auth", "Put Bid Form",
                                             "Store Bid", "Put Comment Auth",
                                             "Put Comment Form", "Store Comment"}));
}

TEST(RubisSessionTest, BidderCommentsTheSellerOfTheBidItem) {
  RubisApp app;
  const Shape& s = app.shape();
  auto factory = app.bidder_factory(sim::RngStream{29});
  for (int i = 0; i < 20; ++i) {
    auto session = factory();
    std::int64_t item = 0;
    while (auto req = session->next()) {
      if (req->page == "Store Bid") item = db::as_int(req->args.at(1));
      if (req->page == "Store Comment") {
        EXPECT_EQ(db::as_int(req->args.at(1)), s.item_seller(item));
        EXPECT_EQ(db::as_int(req->args.at(2)), item);
      }
    }
  }
}

TEST(RubisSessionTest, BiddingSkewsToHotItems) {
  RubisApp app;
  const Shape& s = app.shape();
  auto factory = app.bidder_factory(sim::RngStream{31});
  int hot = 0;
  int total = 0;
  for (int i = 0; i < 500; ++i) {
    auto session = factory();
    while (auto req = session->next()) {
      if (req->page == "Store Bid") {
        ++total;
        if (db::as_int(req->args.at(1)) <= s.items / 10) ++hot;
      }
    }
  }
  EXPECT_GT(static_cast<double>(hot) / total, 0.7);
}

TEST(RubisAppTest, TablePagesMatchTable7Layout) {
  auto pages = RubisApp::table_pages();
  EXPECT_EQ(pages.size(), 17u);  // 10 browser + 7 bidder columns
  EXPECT_EQ(pages.front(), (std::pair<std::string, std::string>{"Browser", "Main"}));
  EXPECT_EQ(pages.back(), (std::pair<std::string, std::string>{"Bidder", "Store Comment"}));
}

TEST(RubisAppTest, DriverIsComplete) {
  RubisApp app;
  AppDriver d = app.driver();
  EXPECT_EQ(d.writer_pattern, "Bidder");
  EXPECT_TRUE(d.db_colocated);  // §3.1: MySQL on the main app server
  EXPECT_TRUE(d.install_database && d.bind_entities && d.browser_factory && d.writer_factory);
}

}  // namespace
}  // namespace mutsvc::apps::rubis
