#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/petstore/petstore.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mutsvc::apps::petstore {
namespace {

using comp::ComponentKind;

struct Fixture {
  PetStoreApp app;
  sim::Simulator sim{1};
  net::Topology topo{sim};
  net::NodeId dbnode = topo.add_node("db", net::NodeRole::kDatabaseServer);
  db::Database db{topo, dbnode};

  Fixture() { app.install_database(db); }
};

// --- component architecture (Table 1 / Figure 1) -------------------------------

TEST(PetStoreAppTest, Table1ComponentsExist) {
  PetStoreApp app;
  const auto& a = app.application();
  // Stateless session beans.
  EXPECT_EQ(a.component("Catalog").kind(), ComponentKind::kStatelessSessionBean);
  EXPECT_EQ(a.component("Customer").kind(), ComponentKind::kStatelessSessionBean);
  EXPECT_EQ(a.component("SignOn").kind(), ComponentKind::kStatelessSessionBean);
  // Stateful session beans.
  EXPECT_EQ(a.component("ShoppingCart").kind(), ComponentKind::kStatefulSessionBean);
  EXPECT_EQ(a.component("ShoppingClientController").kind(),
            ComponentKind::kStatefulSessionBean);
  // Entity beans.
  for (const char* e : {"CategoryEJB", "ProductEJB", "ItemEJB", "InventoryEJB", "AccountEJB",
                        "OrderEJB", "LineItemEJB"}) {
    EXPECT_EQ(a.component(e).kind(), ComponentKind::kEntityBeanRW) << e;
    EXPECT_TRUE(a.component(e).is_local_only()) << e;  // EJB 2.0 local interfaces (§5)
  }
  // Web tier.
  EXPECT_EQ(a.component("PetStoreWeb").kind(), ComponentKind::kServlet);
  EXPECT_TRUE(a.component("CatalogWebImpl").is_local_only());
}

TEST(PetStoreAppTest, EveryTablePageHasAServletMethod) {
  PetStoreApp app;
  const auto& web = app.application().component("PetStoreWeb");
  for (const char* m : {"main", "category", "product", "item", "search", "signin",
                        "verifysignin", "cart", "checkout", "placeorder", "billing",
                        "commitorder", "signout"}) {
    EXPECT_NO_THROW((void)web.find_method(m)) << m;
  }
}

TEST(PetStoreAppTest, MetadataMatchesPaperSection43) {
  PetStoreApp app;
  const AppMetadata& m = app.metadata();
  // §4.3: RO versions of Category, Product, Item, Inventory.
  EXPECT_EQ(std::set<std::string>(m.read_mostly.begin(), m.read_mostly.end()),
            (std::set<std::string>{"Category", "Product", "Item", "Inventory"}));
  // §4.4: Pet Store used the pull-based query refresh.
  EXPECT_EQ(m.query_refresh, comp::QueryRefreshMode::kPull);
  // §4.2: Catalog is the delegating edge façade.
  ASSERT_EQ(m.edge_facades.size(), 1u);
  EXPECT_EQ(m.edge_facades[0], "Catalog");
}

// --- database population (§3.4) --------------------------------------------------

TEST(PetStoreAppTest, DatabasePopulationMatchesShape) {
  Fixture f;
  const Shape& s = f.app.shape();
  EXPECT_EQ(f.db.table("category").row_count(), static_cast<std::size_t>(s.categories));
  EXPECT_EQ(f.db.table("product").row_count(), static_cast<std::size_t>(s.total_products()));
  EXPECT_EQ(f.db.table("item").row_count(), static_cast<std::size_t>(s.total_items()));
  EXPECT_EQ(f.db.table("inventory").row_count(), static_cast<std::size_t>(s.total_items()));
  EXPECT_EQ(f.db.table("account").row_count(), static_cast<std::size_t>(s.accounts));
  EXPECT_EQ(f.db.table("orders").row_count(), 0u);
}

TEST(PetStoreAppTest, ReferentialIntegrity) {
  Fixture f;
  const Shape& s = f.app.shape();
  // Every item's product exists; every product's category exists.
  auto products = f.db.table("product").scan([](const db::Row&) { return true; });
  for (const auto& p : products) {
    EXPECT_TRUE(f.db.table("category").contains(db::as_int((*p)[1])));
  }
  auto items = f.db.table("item").scan([](const db::Row&) { return true; });
  for (const auto& i : items) {
    EXPECT_TRUE(f.db.table("product").contains(db::as_int((*i)[1])));
    EXPECT_TRUE(f.db.table("inventory").contains(db::as_int((*i)[0])));
  }
  // The shape's id scheme round-trips.
  EXPECT_TRUE(f.db.table("product").contains(s.product_id(1, 0)));
  EXPECT_TRUE(f.db.table("item").contains(s.item_id(s.product_id(1, 0), 0)));
}

TEST(PetStoreAppTest, SearchKeywordsMatchProductNames) {
  Fixture f;
  for (const char* kw : {"fish", "dog", "cat", "bird", "snake"}) {
    auto res = f.db.execute_immediate(db::Query::keyword_search("product", "name", kw));
    EXPECT_FALSE(res.rows.empty()) << kw;
  }
}

// --- session scripts (Tables 2 and 3) ---------------------------------------------

TEST(PetStoreSessionTest, BrowserSessionLengthAndStart) {
  PetStoreApp app;
  auto factory = app.browser_factory(sim::RngStream{7});
  auto session = factory();
  int count = 0;
  bool first = true;
  while (auto req = session->next()) {
    if (first) {
      EXPECT_EQ(req->page, "Main");  // "each session ... starting with the Main page"
      first = false;
    }
    EXPECT_EQ(req->pattern, "Browser");
    EXPECT_EQ(req->component, "PetStoreWeb");
    ++count;
  }
  EXPECT_EQ(count, PetStoreApp::kBrowserSessionLength);
}

TEST(PetStoreSessionTest, BrowserMixApproximatesTable2) {
  PetStoreApp app;
  auto factory = app.browser_factory(sim::RngStream{11});
  std::map<std::string, int> counts;
  int total = 0;
  for (int s = 0; s < 800; ++s) {
    auto session = factory();
    while (auto req = session->next()) {
      ++counts[req->page];
      ++total;
    }
  }
  auto frac = [&](const char* page) {
    return static_cast<double>(counts[page]) / static_cast<double>(total);
  };
  // Table 2 weights, with the forced first-Main inflating Main slightly.
  EXPECT_NEAR(frac("Main"), 0.05 + 0.05 * (1.0 - 0.05), 0.03);
  EXPECT_NEAR(frac("Category"), 0.15 * 0.95, 0.03);
  EXPECT_NEAR(frac("Product"), 0.30 * 0.95, 0.03);
  EXPECT_NEAR(frac("Item"), 0.45 * 0.95, 0.03);
  EXPECT_NEAR(frac("Search"), 0.05 * 0.95, 0.02);
}

TEST(PetStoreSessionTest, ItemRequestsBelongToPreviouslyBrowsedProduct) {
  // Table 2: "a request of an Item page always goes after a request for a
  // Product page, such that the requested item belongs to the previously
  // requested product".
  PetStoreApp app;
  const Shape& s = app.shape();
  auto factory = app.browser_factory(sim::RngStream{13});
  for (int si = 0; si < 50; ++si) {
    auto session = factory();
    std::int64_t last_product = 0;
    while (auto req = session->next()) {
      if (req->page == "Product") {
        last_product = db::as_int(req->args.at(0));
      } else if (req->page == "Item") {
        std::int64_t item = db::as_int(req->args.at(0));
        if (last_product != 0) {
          // item ids encode their product: item = product*1000 + k + 1.
          EXPECT_EQ(item / 1000, last_product);
          EXPECT_LE(item % 1000, static_cast<std::int64_t>(s.items_per_product));
        }
      } else {
        // Category/Main/Search navigations reset the product context; the
        // next Item view may implicitly pick a fresh product (§3.2 keeps
        // sessions logically ordered, not strictly alternating).
        last_product = 0;
      }
    }
  }
}

TEST(PetStoreSessionTest, BuyerSessionIsTheFixedTable3Scenario) {
  PetStoreApp app;
  auto factory = app.buyer_factory(sim::RngStream{3});
  auto session = factory();
  std::vector<std::string> pages;
  while (auto req = session->next()) {
    EXPECT_EQ(req->pattern, "Buyer");
    pages.push_back(req->page);
  }
  EXPECT_EQ(pages, (std::vector<std::string>{"Main", "Signin", "Verify Signin",
                                             "Shopping Cart", "Checkout", "Place Order",
                                             "Billing", "Commit Order", "Signout"}));
}

TEST(PetStoreSessionTest, BuyerUsesConsistentAccountAndItem) {
  PetStoreApp app;
  auto factory = app.buyer_factory(sim::RngStream{5});
  auto session = factory();
  std::int64_t verify_account = -1;
  std::int64_t cart_item = -1;
  while (auto req = session->next()) {
    if (req->page == "Verify Signin") verify_account = db::as_int(req->args.at(0));
    if (req->page == "Shopping Cart") cart_item = db::as_int(req->args.at(0));
    if (req->page == "Commit Order") {
      EXPECT_EQ(db::as_int(req->args.at(0)), verify_account);
      EXPECT_EQ(db::as_int(req->args.at(1)), cart_item);
    }
  }
}

TEST(PetStoreSessionTest, FactorySessionsAreIndependentButDeterministic) {
  PetStoreApp app;
  auto f1 = app.browser_factory(sim::RngStream{21});
  auto f2 = app.browser_factory(sim::RngStream{21});
  for (int s = 0; s < 3; ++s) {
    auto a = f1();
    auto b = f2();
    while (true) {
      auto ra = a->next();
      auto rb = b->next();
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (!ra) break;
      EXPECT_EQ(ra->page, rb->page);
      ASSERT_EQ(ra->args.size(), rb->args.size());
    }
  }
}

TEST(PetStoreAppTest, TablePagesCoverBothPatterns) {
  auto pages = PetStoreApp::table_pages();
  EXPECT_EQ(pages.size(), 14u);  // 5 browser + 9 buyer columns of Table 6
  int browser = 0;
  int buyer = 0;
  for (const auto& [pattern, page] : pages) {
    if (pattern == "Browser") ++browser;
    if (pattern == "Buyer") ++buyer;
  }
  EXPECT_EQ(browser, 5);
  EXPECT_EQ(buyer, 9);
}

TEST(PetStoreAppTest, DriverIsComplete) {
  PetStoreApp app;
  AppDriver d = app.driver();
  EXPECT_EQ(d.writer_pattern, "Buyer");
  EXPECT_FALSE(d.db_colocated);
  EXPECT_NE(d.app, nullptr);
  EXPECT_NE(d.meta, nullptr);
  EXPECT_TRUE(d.install_database && d.bind_entities && d.browser_factory && d.writer_factory);
}

}  // namespace
}  // namespace mutsvc::apps::petstore
