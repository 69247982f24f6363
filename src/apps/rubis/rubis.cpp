#include "apps/rubis/rubis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>

#include "db/query.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::apps::rubis {

using comp::CallContext;
using comp::ComponentKind;
using db::Query;
using db::Row;
using db::Value;
using sim::Task;

RubisApp::RubisApp(Shape shape, Calibration cal)
    : shape_(shape), cal_(cal), app_("rubis"), meta_(build_metadata()) {
  define_components();
}

AppMetadata RubisApp::build_metadata() {
  AppMetadata m;
  m.name = "rubis";
  // §4.2: "RUBiS does not use stateful session beans, so only web
  // components were deployed in the edge servers."
  m.web_components = {"RubisWeb"};
  m.stateful_session = {};
  // §4.3: "the read-only beans and SB_ViewBidHistory, SB_ViewItem, and
  // SB_ViewUserInfo façade stateless session beans were also deployed on
  // the edge servers."
  m.edge_facades = {"SB_ViewItem", "SB_ViewBidHistory", "SB_ViewUserInfo"};
  // §4.4: query caches live in the stateless beans issuing the finders.
  m.query_facades = {"SB_BrowseCategories", "SB_BrowseRegions", "SB_SearchItemsByCategory",
                     "SB_SearchItemsByRegion", "SB_Auth", "SB_PutBid", "SB_PutComment"};
  m.main_facades = {"SB_StoreBid", "SB_StoreComment"};
  m.entities = {"UserEJB", "ItemEJB", "BidEJB", "CommentEJB", "CategoryEJB", "RegionEJB"};
  // §4.3: "Read-only BMP versions of Item and User beans were introduced."
  m.read_mostly = {"Item", "User"};
  // §4.4: "A push-based query update mechanism was implemented" for RUBiS.
  m.query_refresh = comp::QueryRefreshMode::kPush;
  return m;
}

void RubisApp::define_components() {
  // ----- session façades (EJB tier) -------------------------------------------
  auto& browse_cat = app_.define("SB_BrowseCategories", ComponentKind::kStatelessSessionBean);
  browse_cat.method({.name = "getCategories",
                     .cpu = cal_.ejb_cpu,
                     .body = [](CallContext& ctx) -> Task<void> {
                       auto res = co_await ctx.cached_query(Query::aggregate("all_categories"));
                       ctx.result = std::move(res.rows);
                     }});
  browse_cat.method({.name = "getCategoriesForRegion",
                     .cpu = cal_.ejb_cpu,
                     .body = [](CallContext& ctx) -> Task<void> {
                       Query q = Query::aggregate("categories_in_region", {ctx.arg(0)});
                       auto res = co_await ctx.cached_query(std::move(q));
                       ctx.result = std::move(res.rows);
                     }});

  auto& browse_reg = app_.define("SB_BrowseRegions", ComponentKind::kStatelessSessionBean);
  browse_reg.method({.name = "getRegions",
                     .cpu = cal_.ejb_cpu,
                     .body = [](CallContext& ctx) -> Task<void> {
                       auto res = co_await ctx.cached_query(Query::aggregate("all_regions"));
                       ctx.result = std::move(res.rows);
                     }});

  auto& search_cat = app_.define("SB_SearchItemsByCategory", ComponentKind::kStatelessSessionBean);
  search_cat.method({.name = "getItems",
                     .cpu = cal_.ejb_cpu,
                     .body = [](CallContext& ctx) -> Task<void> {
                       auto res = co_await ctx.cached_query(
                           Query::finder("items", "category_id", ctx.arg(0)));
                       ctx.result = std::move(res.rows);
                     }});

  auto& search_reg = app_.define("SB_SearchItemsByRegion", ComponentKind::kStatelessSessionBean);
  search_reg.method({.name = "getItems",
                     .cpu = cal_.ejb_cpu,
                     .body = [](CallContext& ctx) -> Task<void> {
                       Query q = Query::aggregate("items_in_category_region",
                                                  {ctx.arg(0), ctx.arg(1)});
                       auto res = co_await ctx.cached_query(std::move(q));
                       ctx.result = std::move(res.rows);
                     }});

  auto& view_item = app_.define("SB_ViewItem", ComponentKind::kStatelessSessionBean);
  view_item.method({.name = "getItem",
                    .cpu = cal_.ejb_cpu,
                    .body = [](CallContext& ctx) -> Task<void> {
                      auto item = co_await ctx.read_entity("Item", ctx.arg_int(0));
                      if (item) ctx.result.push_back(std::move(item));
                    }});

  auto& view_bids = app_.define("SB_ViewBidHistory", ComponentKind::kStatelessSessionBean);
  view_bids.method({.name = "getBids",
                    .cpu = cal_.ejb_cpu,
                    .body = [](CallContext& ctx) -> Task<void> {
                      auto res = co_await ctx.cached_query(
                          Query::finder("bids", "item_id", ctx.arg(0)));
                      ctx.result = std::move(res.rows);
                    }});

  auto& view_user = app_.define("SB_ViewUserInfo", ComponentKind::kStatelessSessionBean);
  view_user.method({.name = "getUserInfo",
                    .cpu = cal_.ejb_cpu,
                    .body = [](CallContext& ctx) -> Task<void> {
                      auto user = co_await ctx.read_entity("User", ctx.arg_int(0));
                      if (user) ctx.result.push_back(std::move(user));
                      auto comments = co_await ctx.cached_query(
                          Query::finder("comments", "to_user", ctx.arg(0)));
                      for (auto& r : comments.rows) ctx.result.push_back(std::move(r));
                    }});

  // Authentication is a finder on (nickname, password) — a query, which is
  // why it becomes edge-local only once query caching is enabled (§4.4's
  // "triumphal" bidder-form improvement).
  auto& auth = app_.define("SB_Auth", ComponentKind::kStatelessSessionBean);
  auth.method({.name = "authenticate",
               .cpu = cal_.ejb_cpu,
               .body = [](CallContext& ctx) -> Task<void> {
                 auto res = co_await ctx.cached_query(
                     Query::finder("users", "nickname", ctx.arg(0)));
                 ctx.result = std::move(res.rows);
               }});
  const comp::MethodRef authenticate = app_.method_ref("SB_Auth", "authenticate");

  auto& put_bid = app_.define("SB_PutBid", ComponentKind::kStatelessSessionBean);
  put_bid.method({.name = "buildForm",
                  .cpu = cal_.ejb_cpu,
                  .body = [authenticate](CallContext& ctx) -> Task<void> {
                    // Verify credentials, then show current item state.
                    (void)co_await ctx.call(authenticate, ctx.arg(0));
                    auto item = co_await ctx.read_entity("Item", ctx.arg_int(1));
                    if (item) ctx.result.push_back(std::move(item));
                  }});

  auto& store_bid = app_.define("SB_StoreBid", ComponentKind::kStatelessSessionBean);
  store_bid.method(
      {.name = "storeBid",
       .cpu = cal_.ejb_cpu,
       .body = [](CallContext& ctx) -> Task<void> {
         const std::int64_t user = ctx.arg_int(0);
         const std::int64_t item = ctx.arg_int(1);
         const double amount = db::as_real(ctx.arg(2));
         auto current = co_await ctx.read_entity("Item", item);
         if (!current) co_return;
         const std::int64_t category = db::as_int((*current)[2]);
         const std::int64_t nb_bids = db::as_int((*current)[5]);
         // One transaction: insert the bid, update the item's bid count and
         // current price; invalidates the item's bid history and the item
         // listings that display prices/bid counts.
         std::vector<Query> affected{
             Query::finder("bids", "item_id", Value{item}),
             Query::finder("items", "category_id", Value{category}),
         };
         const std::int64_t bid_id = ctx.allocate_id("bids");
         Row bid{bid_id, item, user, amount};
         co_await ctx.insert_row("Bid", std::move(bid), affected);
         co_await ctx.write_entity("Item", item, "nb_bids", nb_bids + 1, affected);
         co_await ctx.write_entity("Item", item, "current_price", amount);
       }});

  auto& put_comment = app_.define("SB_PutComment", ComponentKind::kStatelessSessionBean);
  put_comment.method({.name = "buildForm",
                      .cpu = cal_.ejb_cpu,
                      .body = [authenticate](CallContext& ctx) -> Task<void> {
                        (void)co_await ctx.call(authenticate, ctx.arg(0));
                        auto user = co_await ctx.read_entity("User", ctx.arg_int(1));
                        if (user) ctx.result.push_back(std::move(user));
                      }});

  auto& store_comment = app_.define("SB_StoreComment", ComponentKind::kStatelessSessionBean);
  store_comment.method(
      {.name = "storeComment",
       .cpu = cal_.ejb_cpu,
       .body = [](CallContext& ctx) -> Task<void> {
         const std::int64_t from = ctx.arg_int(0);
         const std::int64_t to = ctx.arg_int(1);
         const std::int64_t item = ctx.arg_int(2);
         auto target = co_await ctx.read_entity("User", to);
         if (!target) co_return;
         const std::int64_t rating = db::as_int((*target)[4]);
         std::vector<Query> affected{Query::finder("comments", "to_user", Value{to})};
         const std::int64_t comment_id = ctx.allocate_id("comments");
         Row comment{comment_id, from, to, item, std::int64_t{5}, std::string{"Great seller"}};
         co_await ctx.insert_row("Comment", std::move(comment), affected);
         co_await ctx.write_entity("User", to, "rating", rating + 1);
       }});

  // Entity beans (placement anchors; data access via CallContext helpers).
  for (const char* e :
       {"UserEJB", "ItemEJB", "BidEJB", "CommentEJB", "CategoryEJB", "RegionEJB"}) {
    app_.define(e, ComponentKind::kEntityBeanRW).local_interface_only();
  }

  // ----- web tier: one servlet per page type (§2.2) ----------------------------
  auto& web = app_.define("RubisWeb", ComponentKind::kServlet);

  auto simple_page = [&](const char* name, sim::Duration latency, net::Bytes bytes) {
    web.method({.name = name, .cpu = cal_.page_cpu, .latency = latency, .result_bytes = bytes});
  };
  simple_page("main", cal_.main_latency, 2 * 1024);
  simple_page("browse", cal_.browse_latency, 2 * 1024);
  simple_page("putbidauth", cal_.putbidauth_latency, 2 * 1024);
  simple_page("putcommentauth", cal_.putcommentauth_latency, 2 * 1024);

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

  facade_page("allcategories", cal_.allcategories_latency, "SB_BrowseCategories",
              "getCategories", 4 * 1024);
  facade_page("allregions", cal_.allregions_latency, "SB_BrowseRegions", "getRegions", 3 * 1024);
  facade_page("region", cal_.region_latency, "SB_BrowseCategories", "getCategoriesForRegion",
              4 * 1024);
  facade_page("category", cal_.category_latency, "SB_SearchItemsByCategory", "getItems",
              6 * 1024);
  facade_page("categoryregion", cal_.categoryregion_latency, "SB_SearchItemsByRegion",
              "getItems", 5 * 1024);
  facade_page("item", cal_.item_latency, "SB_ViewItem", "getItem", 4 * 1024);
  facade_page("bids", cal_.bids_latency, "SB_ViewBidHistory", "getBids", 4 * 1024);
  facade_page("userinfo", cal_.userinfo_latency, "SB_ViewUserInfo", "getUserInfo", 4 * 1024);
  facade_page("putbidform", cal_.putbidform_latency, "SB_PutBid", "buildForm", 3 * 1024);
  facade_page("storebid", cal_.storebid_latency, "SB_StoreBid", "storeBid", 2 * 1024);
  facade_page("putcommentform", cal_.putcommentform_latency, "SB_PutComment", "buildForm",
              3 * 1024);
  facade_page("storecomment", cal_.storecomment_latency, "SB_StoreComment", "storeComment",
              2 * 1024);
}

void RubisApp::install_database(db::Database& db) const {
  using db::Column;
  using db::ColumnType;

  auto& regions =
      db.create_table("regions", {{"id", ColumnType::kInt}, {"name", ColumnType::kText}});
  auto& categories =
      db.create_table("categories", {{"id", ColumnType::kInt}, {"name", ColumnType::kText}});
  auto& users = db.create_table("users", {{"id", ColumnType::kInt},
                                          {"nickname", ColumnType::kText},
                                          {"password", ColumnType::kText},
                                          {"region_id", ColumnType::kInt},
                                          {"rating", ColumnType::kInt}});
  auto& items = db.create_table("items", {{"id", ColumnType::kInt},
                                          {"name", ColumnType::kText},
                                          {"category_id", ColumnType::kInt},
                                          {"seller_id", ColumnType::kInt},
                                          {"initial_price", ColumnType::kReal},
                                          {"nb_bids", ColumnType::kInt},
                                          {"current_price", ColumnType::kReal}});
  auto& bids = db.create_table("bids", {{"id", ColumnType::kInt},
                                        {"item_id", ColumnType::kInt},
                                        {"user_id", ColumnType::kInt},
                                        {"amount", ColumnType::kReal}});
  auto& comments = db.create_table("comments", {{"id", ColumnType::kInt},
                                                {"from_user", ColumnType::kInt},
                                                {"to_user", ColumnType::kInt},
                                                {"item_id", ColumnType::kInt},
                                                {"rating", ColumnType::kInt},
                                                {"text", ColumnType::kText}});

  users.create_index("nickname");
  items.create_index("category_id");
  bids.create_index("item_id");
  comments.create_index("to_user");

  for (std::int64_t r = 1; r <= shape_.regions; ++r) {
    regions.insert(Row{r, std::string{"Region-"} + std::to_string(r)});
  }
  for (std::int64_t c = 1; c <= shape_.categories; ++c) {
    categories.insert(Row{c, std::string{"Category-"} + std::to_string(c)});
  }
  for (std::int64_t u = 1; u <= shape_.users; ++u) {
    users.insert(Row{u, std::string{"user"} + std::to_string(u), std::string{"pw"},
                     shape_.user_region(u), std::int64_t{0}});
  }
  std::int64_t bid_id = 0;
  for (std::int64_t i = 1; i <= shape_.items; ++i) {
    items.insert(Row{i, std::string{"Item-"} + std::to_string(i), shape_.item_category(i),
                     shape_.item_seller(i), 10.0, std::int64_t{shape_.initial_bids_per_item},
                     10.0 + static_cast<double>(shape_.initial_bids_per_item)});
    for (int b = 0; b < shape_.initial_bids_per_item; ++b) {
      bids.insert(Row{++bid_id, i, (i + b) % shape_.users + 1, 10.0 + b});
    }
  }
  std::int64_t comment_id = 0;
  for (std::int64_t u = 1; u <= shape_.users; ++u) {
    for (int c = 0; c < shape_.initial_comments_per_user; ++c) {
      comments.insert(Row{++comment_id, (u + c) % shape_.users + 1, u, (u % shape_.items) + 1,
                          std::int64_t{5}, std::string{"ok"}});
    }
  }

  db.register_aggregate("all_categories", [](db::Database& d, const std::vector<Value>&) {
    return d.table("categories").scan([](const Row&) { return true; });
  });
  db.register_aggregate("all_regions", [](db::Database& d, const std::vector<Value>&) {
    return d.table("regions").scan([](const Row&) { return true; });
  });
  db.register_aggregate("categories_in_region",
                        [](db::Database& d, const std::vector<Value>&) {
                          // The region filters which items exist per category;
                          // the category list itself is global.
                          return d.table("categories").scan([](const Row&) { return true; });
                        });
  db.register_aggregate(
      "items_in_category_region", [](db::Database& d, const std::vector<Value>& params) {
        const std::int64_t category = db::as_int(params.at(0));
        const std::int64_t region = db::as_int(params.at(1));
        std::vector<db::RowRef> out;
        // Index walk: only the rows that survive the region filter join
        // the result, and every row stays shared.
        d.table("items").for_each_equal("category_id", category, [&](const db::RowRef& item) {
          const db::RowRef seller = d.table("users").get(db::as_int((*item)[3]));
          if (seller && db::as_int((*seller)[3]) == region) out.push_back(item);
        });
        return out;
      });
}

void RubisApp::bind_entities(comp::Runtime& rt) const {
  rt.bind_entity("User", "users");
  rt.bind_entity("Item", "items");
  rt.bind_entity("Bid", "bids");
  rt.bind_entity("Comment", "comments");
  rt.bind_entity("Category", "categories");
  rt.bind_entity("Region", "regions");
}

// --- usage patterns (Tables 4 and 5), one step function each ---------------------

namespace {

workload::PageRequest make_request(const char* pattern, std::string page, std::string method,
                                   std::vector<Value> args) {
  workload::PageRequest req;
  req.page = std::move(page);
  req.pattern = pattern;
  req.component = "RubisWeb";
  req.method = std::move(method);
  req.args = std::move(args);
  req.response_bytes = 4 * 1024;
  return req;
}

/// Table 4: 40 requests with the listed weights, logically ordered (Item /
/// Bids requests follow a Category listing, User Info follows Bids, ...).
/// scratch.w0 packs the current region (low) and category (high),
/// scratch.w1 holds the current item.
struct BrowserStep {
  Shape shape;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step >= static_cast<std::uint32_t>(RubisApp::kBrowserSessionLength)) {
      return std::nullopt;
    }
    if (step == 0) return make_request("Browser", "Main", "main", {});

    std::int64_t region = workload::FsmScratch::low(scratch.w0);
    std::int64_t category = workload::FsmScratch::high(scratch.w0);
    auto item = static_cast<std::int64_t>(scratch.w1);
    auto pick_item = [&] {
      if (category == 0) category = rng.uniform_int(1, shape.categories);
      // Items of a category are spaced `categories` apart (item_category).
      const auto per_cat = static_cast<std::int64_t>(shape.items / shape.categories);
      const std::int64_t k = rng.uniform_int(0, per_cat - 1);
      return (category - 1) + k * shape.categories + 1;
    };
    static constexpr std::array<double, 10> kWeights = {2.5, 2.5, 2.5,  2.5, 2.5,
                                                        7.5, 7.5, 42.5, 15,  15};
    std::optional<workload::PageRequest> req;
    switch (rng.weighted_index(kWeights)) {
      case 0: req = make_request("Browser", "Main", "main", {}); break;
      case 1: req = make_request("Browser", "Browse", "browse", {}); break;
      case 2: req = make_request("Browser", "All Categories", "allcategories", {}); break;
      case 3: req = make_request("Browser", "All Regions", "allregions", {}); break;
      case 4:
        region = rng.uniform_int(1, shape.regions);
        req = make_request("Browser", "Region", "region", {Value{region}});
        break;
      case 5:
        category = rng.uniform_int(1, shape.categories);
        req = make_request("Browser", "Category", "category", {Value{category}});
        break;
      case 6:
        category = rng.uniform_int(1, shape.categories);
        if (region == 0) region = rng.uniform_int(1, shape.regions);
        req = make_request("Browser", "Category & Region", "categoryregion",
                           {Value{category}, Value{region}});
        break;
      case 7:
        item = pick_item();
        req = make_request("Browser", "Item", "item", {Value{item}});
        break;
      case 8:
        item = pick_item();
        req = make_request("Browser", "Bids", "bids", {Value{item}});
        break;
      default: {
        const std::int64_t user =
            item != 0 ? shape.item_seller(item) : rng.uniform_int(1, shape.users);
        req = make_request("Browser", "User Info", "userinfo", {Value{user}});
        break;
      }
    }
    scratch.w0 = workload::FsmScratch::pack(region, category);
    scratch.w1 = static_cast<std::uint64_t>(item);
    return req;
  }
};

/// Table 5: the fixed bidder scenario — bid on an item, then leave a
/// comment for its seller. scratch.w0 packs the user (low) and item (high),
/// scratch.w1 holds the bid amount's bits; the seller follows from the item.
struct BidderStep {
  Shape shape;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step == 0) {
      const std::int64_t user = rng.uniform_int(1, shape.users);
      // Bidding concentrates on active auctions: 80% of bids go to a hot
      // tenth of the items (auction traffic is heavily skewed).
      const std::int64_t hot = std::max<std::int64_t>(1, shape.items / 10);
      const std::int64_t item =
          rng.bernoulli(0.8) ? rng.uniform_int(1, hot) : rng.uniform_int(1, shape.items);
      scratch.w0 = workload::FsmScratch::pack(user, item);
      scratch.w1 = std::bit_cast<std::uint64_t>(rng.uniform(20.0, 200.0));
    }
    const std::int64_t user = workload::FsmScratch::low(scratch.w0);
    const std::int64_t item = workload::FsmScratch::high(scratch.w0);
    const std::int64_t seller = shape.item_seller(item);
    const std::string nick = "user" + std::to_string(user);
    switch (step) {
      case 0: return make_request("Bidder", "Main", "main", {});
      case 1: return make_request("Bidder", "Put Bid Auth", "putbidauth", {});
      case 2:
        return make_request("Bidder", "Put Bid Form", "putbidform", {Value{nick}, Value{item}});
      case 3:
        return make_request("Bidder", "Store Bid", "storebid",
                            {Value{user}, Value{item},
                             Value{std::bit_cast<double>(scratch.w1)}});
      case 4: return make_request("Bidder", "Put Comment Auth", "putcommentauth", {});
      case 5:
        return make_request("Bidder", "Put Comment Form", "putcommentform",
                            {Value{nick}, Value{seller}});
      case 6:
        return make_request("Bidder", "Store Comment", "storecomment",
                            {Value{user}, Value{seller}, Value{item}});
      default: return std::nullopt;
    }
  }
};

}  // namespace

workload::SessionFactory RubisApp::browser_factory(sim::RngStream rng) const {
  return workload::step_factory("Browser", BrowserStep{shape_}, std::move(rng));
}

workload::SessionFactory RubisApp::bidder_factory(sim::RngStream rng) const {
  return workload::step_factory("Bidder", BidderStep{shape_}, std::move(rng));
}

AppDriver RubisApp::driver() const {
  AppDriver d;
  d.name = "RUBiS";
  d.app = &app_;
  d.meta = &meta_;
  d.install_database = [this](db::Database& db) { install_database(db); };
  d.bind_entities = [this](comp::Runtime& rt) { bind_entities(rt); };
  d.browser_factory = [this](sim::RngStream rng) { return browser_factory(std::move(rng)); };
  d.writer_factory = [this](sim::RngStream rng) { return bidder_factory(std::move(rng)); };
  // RUBiS has no item-popularity model; the Zipf exponent is ignored.
  d.fsm_browser_model = [this](double) {
    return workload::step_model("Browser", BrowserStep{shape_});
  };
  d.fsm_writer_model = [this](double) {
    return workload::step_model("Bidder", BidderStep{shape_});
  };
  d.table_pages = table_pages();
  d.writer_pattern = "Bidder";
  d.db_colocated = true;  // MySQL on the main app-server workstation (§3.1)
  return d;
}

std::vector<std::pair<std::string, std::string>> RubisApp::table_pages() {
  return {{"Browser", "Main"},
          {"Browser", "Browse"},
          {"Browser", "All Categories"},
          {"Browser", "All Regions"},
          {"Browser", "Region"},
          {"Browser", "Category"},
          {"Browser", "Category & Region"},
          {"Browser", "Item"},
          {"Browser", "Bids"},
          {"Browser", "User Info"},
          {"Bidder", "Main"},
          {"Bidder", "Put Bid Auth"},
          {"Bidder", "Put Bid Form"},
          {"Bidder", "Store Bid"},
          {"Bidder", "Put Comment Auth"},
          {"Bidder", "Put Comment Form"},
          {"Bidder", "Store Comment"}};
  }

}  // namespace mutsvc::apps::rubis
