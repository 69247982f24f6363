#include "apps/petstore/petstore.hpp"

#include <array>
#include <memory>
#include <optional>

#include "db/query.hpp"
#include "workload/arrivals.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::apps::petstore {

using comp::CallContext;
using comp::ComponentKind;
using comp::Feature;
using db::Query;
using db::Row;
using db::Value;
using sim::Task;

namespace {

const std::array<const char*, 5> kKeywords = {"fish", "dog", "cat", "bird", "snake"};

/// The web tier's pre-façade data access (§4.2): entity-by-entity BMP-style
/// traversal — one finder plus one pk load per row (the "n+1 database
/// calls problem", §5).
[[nodiscard]] Task<void> n_plus_1_fetch(CallContext& ctx, Query finder, const std::string& table) {
  db::QueryResult heads = co_await ctx.direct_query(std::move(finder));
  for (const auto& head : heads.rows) {
    db::QueryResult full =
        co_await ctx.direct_query(Query::pk_lookup(table, db::as_int((*head)[0])));
    if (!full.rows.empty()) ctx.result.push_back(std::move(full.rows[0]));
  }
}

}  // namespace

PetStoreApp::PetStoreApp(Shape shape, Calibration cal)
    : shape_(shape), cal_(cal), app_("petstore"), meta_(build_metadata()) {
  define_components();
}

AppMetadata PetStoreApp::build_metadata() {
  AppMetadata m;
  m.name = "petstore";
  m.web_components = {"PetStoreWeb", "CatalogWebImpl"};
  m.stateful_session = {"ShoppingCart", "ShoppingClientController"};
  m.edge_facades = {"Catalog"};
  m.main_facades = {"SignOn", "Customer", "OrderProcessor"};
  m.entities = {"CategoryEJB", "ProductEJB", "ItemEJB", "InventoryEJB", "AccountEJB",
                "OrderEJB", "LineItemEJB"};
  m.read_mostly = {"Category", "Product", "Item", "Inventory"};
  // §4.4: "For simplicity, we implemented the pull-based update mechanism
  // for caching query results" (the Pet Store catalog is read-only anyway).
  m.query_refresh = comp::QueryRefreshMode::kPull;
  return m;
}

void PetStoreApp::define_components() {
  // ----- EJB tier ------------------------------------------------------------
  auto& catalog = app_.define("Catalog", ComponentKind::kStatelessSessionBean);
  catalog.method({.name = "getProducts",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    auto res = co_await ctx.cached_query(
                        Query::finder("product", "category_id", ctx.arg(0)));
                    ctx.result = std::move(res.rows);
                  }});
  catalog.method({.name = "getItems",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    auto res = co_await ctx.cached_query(
                        Query::finder("item", "product_id", ctx.arg(0)));
                    ctx.result = std::move(res.rows);
                  }});
  catalog.method({.name = "getItem",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    // Item details plus availability (Inventory), §2.2/Fig 1.
                    auto item = co_await ctx.read_entity("Item", ctx.arg_int(0));
                    auto inv = co_await ctx.read_entity("Inventory", ctx.arg_int(0));
                    if (item) ctx.result.push_back(std::move(item));
                    if (inv) ctx.result.push_back(std::move(inv));
                  }});
  catalog.method({.name = "search",
                  .cpu = cal_.ejb_cpu,
                  .body = [](CallContext& ctx) -> Task<void> {
                    // Keyword queries are never cached (§4.4) — cached_query
                    // recognizes them as uncacheable and runs them at the DB.
                    auto res = co_await ctx.cached_query(
                        Query::keyword_search("product", "name", ctx.arg_text(0)));
                    ctx.result = std::move(res.rows);
                  }});

  auto& signon = app_.define("SignOn", ComponentKind::kStatelessSessionBean);
  signon.method({.name = "authenticate",
                 .cpu = cal_.ejb_cpu,
                 .body = [](CallContext& ctx) -> Task<void> {
                   auto acct = co_await ctx.read_entity("Account", ctx.arg_int(0));
                   if (acct) ctx.result.push_back(std::move(acct));
                 }});

  auto& customer = app_.define("Customer", ComponentKind::kStatelessSessionBean);
  customer.method({.name = "getProfile",
                   .cpu = cal_.ejb_cpu,
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto acct = co_await ctx.read_entity("Account", ctx.arg_int(0));
                     if (acct) ctx.result.push_back(std::move(acct));
                   }});

  auto& orders = app_.define("OrderProcessor", ComponentKind::kStatelessSessionBean);
  orders.method({.name = "commitOrder",
                 .cpu = cal_.ejb_cpu,
                 .latency = cal_.commit_tx_latency,
                 .body = [](CallContext& ctx) -> Task<void> {
                   const std::int64_t account = ctx.arg_int(0);
                   const std::int64_t item = ctx.arg_int(1);
                   // Create the order and its line item.
                   const std::int64_t order_id = ctx.allocate_id("orders");
                   Row order{order_id, account, std::string{"pending"}, 0.0};
                   co_await ctx.insert_row("Order", std::move(order));
                   const std::int64_t li_id = ctx.allocate_id("lineitem");
                   Row line{li_id, order_id, item, std::int64_t{1}, 0.0};
                   co_await ctx.insert_row("LineItem", std::move(line));
                   // Decrement inventory — per line item (§4.5 notes Commit
                   // "causes writes to the Inventory EJB for each item in
                   // the user's shopping cart"; sessions carry one item).
                   auto inv = co_await ctx.read_entity("Inventory", item);
                   const std::int64_t qty = inv ? db::as_int((*inv)[1]) : 0;
                   co_await ctx.write_entity("Inventory", item, "qty",
                                             qty > 0 ? qty - 1 : std::int64_t{0});
                 }});

  // Stateful session beans: pure session state, no shared data.
  auto& cart = app_.define("ShoppingCart", ComponentKind::kStatefulSessionBean);
  cart.method({.name = "addItem", .cpu = sim::us(300)});
  cart.method({.name = "getItems", .cpu = sim::us(300)});
  auto& scc = app_.define("ShoppingClientController", ComponentKind::kStatefulSessionBean);
  scc.method({.name = "handleEvent", .cpu = sim::us(300)});

  // Entity beans (read-write masters; data access goes through the
  // CallContext entity helpers, these definitions anchor placement).
  for (const char* e : {"CategoryEJB", "ProductEJB", "ItemEJB", "InventoryEJB", "AccountEJB",
                        "OrderEJB", "LineItemEJB"}) {
    app_.define(e, ComponentKind::kEntityBeanRW).local_interface_only();
  }

  // Web helper bean (always co-located with the servlets).
  app_.define("CatalogWebImpl", ComponentKind::kJavaBean).local_interface_only();

  // ----- web tier -------------------------------------------------------------
  // The façade methods the pages call, resolved once here: a page body never
  // looks a component or method up by name.
  const comp::MethodRef get_products = app_.method_ref("Catalog", "getProducts");
  const comp::MethodRef get_items = app_.method_ref("Catalog", "getItems");
  const comp::MethodRef get_item = app_.method_ref("Catalog", "getItem");
  const comp::MethodRef search = app_.method_ref("Catalog", "search");
  const comp::MethodRef authenticate = app_.method_ref("SignOn", "authenticate");
  const comp::MethodRef get_profile = app_.method_ref("Customer", "getProfile");
  const comp::MethodRef add_item = app_.method_ref("ShoppingCart", "addItem");
  const comp::MethodRef cart_items = app_.method_ref("ShoppingCart", "getItems");
  const comp::MethodRef handle_event = app_.method_ref("ShoppingClientController", "handleEvent");
  const comp::MethodRef commit_order = app_.method_ref("OrderProcessor", "commitOrder");

  auto& web = app_.define("PetStoreWeb", ComponentKind::kServlet);

  web.method({.name = "main", .cpu = cal_.page_cpu, .latency = cal_.main_latency,
              .result_bytes = 7 * 1024});

  web.method({.name = "category",
              .cpu = cal_.page_cpu,
              .latency = cal_.category_latency,
              .result_bytes = 6 * 1024,
              .body = [get_products](CallContext& ctx) -> Task<void> {
                if (ctx.has(Feature::kRemoteFacade)) {
                  auto res = co_await ctx.call(get_products, ctx.arg(0));
                  ctx.result = std::move(res.rows);
                } else {
                  co_await n_plus_1_fetch(
                      ctx, Query::finder("product", "category_id", ctx.arg(0)), "product");
                }
              }});

  web.method({.name = "product",
              .cpu = cal_.page_cpu,
              .latency = cal_.product_latency,
              .result_bytes = 6 * 1024,
              .body = [get_items](CallContext& ctx) -> Task<void> {
                if (ctx.has(Feature::kRemoteFacade)) {
                  auto res = co_await ctx.call(get_items, ctx.arg(0));
                  ctx.result = std::move(res.rows);
                } else {
                  co_await n_plus_1_fetch(
                      ctx, Query::finder("item", "product_id", ctx.arg(0)), "item");
                }
              }});

  web.method({.name = "item",
              .cpu = cal_.page_cpu,
              .latency = cal_.item_latency,
              .result_bytes = 5 * 1024,
              .body = [get_item](CallContext& ctx) -> Task<void> {
                if (ctx.has(Feature::kRemoteFacade)) {
                  auto res = co_await ctx.call(get_item, ctx.arg(0));
                  ctx.result = std::move(res.rows);
                } else {
                  auto item = co_await ctx.direct_query(Query::pk_lookup("item", ctx.arg_int(0)));
                  auto inv =
                      co_await ctx.direct_query(Query::pk_lookup("inventory", ctx.arg_int(0)));
                  ctx.result = std::move(item.rows);
                  for (auto& r : inv.rows) ctx.result.push_back(std::move(r));
                }
              }});

  web.method({.name = "search",
              .cpu = cal_.page_cpu,
              .latency = cal_.search_latency,
              .result_bytes = 6 * 1024,
              .body = [search](CallContext& ctx) -> Task<void> {
                if (ctx.has(Feature::kRemoteFacade)) {
                  auto res = co_await ctx.call(search, ctx.arg(0));
                  ctx.result = std::move(res.rows);
                } else {
                  auto res = co_await ctx.direct_query(
                      Query::keyword_search("product", "name", ctx.arg_text(0)));
                  ctx.result = std::move(res.rows);
                }
              }});

  web.method({.name = "signin", .cpu = cal_.page_cpu, .latency = cal_.signin_latency,
              .result_bytes = 3 * 1024});

  web.method({.name = "verifysignin",
              .cpu = cal_.page_cpu,
              .latency = cal_.verify_latency,
              .result_bytes = 4 * 1024,
              .body = [authenticate, get_profile](CallContext& ctx) -> Task<void> {
                // §4.2: "the only exception is the Verify Signin page, which
                // makes two RMI calls": create the Customer session + fetch
                // the profile.
                (void)co_await ctx.call(authenticate, ctx.arg(0));
                (void)co_await ctx.call(get_profile, ctx.arg(0));
              }});

  web.method({.name = "cart",
              .cpu = cal_.page_cpu,
              .latency = cal_.cart_latency,
              .result_bytes = 5 * 1024,
              .body = [add_item, get_item](CallContext& ctx) -> Task<void> {
                (void)co_await ctx.call(add_item, ctx.arg(0));
                // Render the updated cart: item details + availability.
                if (ctx.has(Feature::kRemoteFacade)) {
                  auto res = co_await ctx.call(get_item, ctx.arg(0));
                  ctx.result = std::move(res.rows);
                } else {
                  auto item = co_await ctx.direct_query(Query::pk_lookup("item", ctx.arg_int(0)));
                  auto inv =
                      co_await ctx.direct_query(Query::pk_lookup("inventory", ctx.arg_int(0)));
                  ctx.result = std::move(item.rows);
                  for (auto& r : inv.rows) ctx.result.push_back(std::move(r));
                }
              }});

  web.method({.name = "checkout",
              .cpu = cal_.page_cpu,
              .latency = cal_.checkout_latency,
              .result_bytes = 4 * 1024,
              .body = [cart_items](CallContext& ctx) -> Task<void> {
                (void)co_await ctx.call(cart_items, {});
              }});

  web.method({.name = "placeorder",
              .cpu = cal_.page_cpu,
              .latency = cal_.placeorder_latency,
              .result_bytes = 4 * 1024,
              .body = [handle_event](CallContext& ctx) -> Task<void> {
                (void)co_await ctx.call(handle_event, {});
              }});

  web.method({.name = "billing", .cpu = cal_.page_cpu, .latency = cal_.billing_latency,
              .result_bytes = 4 * 1024});

  web.method({.name = "commitorder",
              .cpu = cal_.page_cpu,
              .latency = cal_.commit_latency,
              .result_bytes = 4 * 1024,
              .body = [commit_order](CallContext& ctx) -> Task<void> {
                (void)co_await ctx.call(commit_order, ctx.arg(0), ctx.arg(1));
              }});

  web.method({.name = "signout", .cpu = cal_.page_cpu, .latency = cal_.signout_latency,
              .result_bytes = 3 * 1024});
}

void PetStoreApp::install_database(db::Database& db) const {
  using db::Column;
  using db::ColumnType;

  auto& category = db.create_table(
      "category", {{"id", ColumnType::kInt}, {"name", ColumnType::kText}});
  auto& product = db.create_table(
      "product", {{"id", ColumnType::kInt},
                  {"category_id", ColumnType::kInt},
                  {"name", ColumnType::kText},
                  {"descn", ColumnType::kText}});
  auto& item = db.create_table("item", {{"id", ColumnType::kInt},
                                        {"product_id", ColumnType::kInt},
                                        {"attr", ColumnType::kText},
                                        {"listprice", ColumnType::kReal}});
  auto& inventory =
      db.create_table("inventory", {{"id", ColumnType::kInt}, {"qty", ColumnType::kInt}});
  auto& account = db.create_table("account", {{"id", ColumnType::kInt},
                                              {"username", ColumnType::kText},
                                              {"password", ColumnType::kText},
                                              {"email", ColumnType::kText}});
  db.create_table("orders", {{"id", ColumnType::kInt},
                             {"account_id", ColumnType::kInt},
                             {"status", ColumnType::kText},
                             {"total", ColumnType::kReal}});
  db.create_table("lineitem", {{"id", ColumnType::kInt},
                               {"order_id", ColumnType::kInt},
                               {"item_id", ColumnType::kInt},
                               {"qty", ColumnType::kInt},
                               {"unitprice", ColumnType::kReal}});

  product.create_index("category_id");
  item.create_index("product_id");

  const std::array<const char*, 5> kSpecies = {"Angelfish", "Bulldog", "Persian cat",
                                               "Parrot bird", "Rattlesnake"};
  for (std::int64_t c = 1; c <= shape_.categories; ++c) {
    category.insert(Row{c, std::string{"Category-"} + std::to_string(c)});
    for (int p = 0; p < shape_.products_per_category; ++p) {
      const std::int64_t pid = shape_.product_id(c, p);
      std::string name = std::string{kSpecies[static_cast<std::size_t>(p) % kSpecies.size()]} +
                         " #" + std::to_string(pid);
      product.insert(Row{pid, c, std::move(name), std::string{"A fine pet"}});
      for (int i = 0; i < shape_.items_per_product; ++i) {
        const std::int64_t iid = shape_.item_id(pid, i);
        item.insert(Row{iid, pid, std::string{"EST-"} + std::to_string(iid),
                        9.99 + static_cast<double>(i)});
        inventory.insert(Row{iid, std::int64_t{10000}});
      }
    }
  }
  for (std::int64_t a = 1; a <= shape_.accounts; ++a) {
    account.insert(Row{a, std::string{"user"} + std::to_string(a), std::string{"pw"},
                       std::string{"u@example.com"}});
  }
}

void PetStoreApp::bind_entities(comp::Runtime& rt) const {
  rt.bind_entity("Category", "category");
  rt.bind_entity("Product", "product");
  rt.bind_entity("Item", "item");
  rt.bind_entity("Inventory", "inventory");
  rt.bind_entity("Account", "account");
  rt.bind_entity("Order", "orders");
  rt.bind_entity("LineItem", "lineitem");
}

// --- usage patterns (Tables 2 and 3), one step function each -------------------

namespace {

workload::PageRequest page(const char* pattern, std::string name, std::string method,
                           std::vector<Value> args) {
  workload::PageRequest req;
  req.page = std::move(name);
  req.pattern = pattern;
  req.component = "PetStoreWeb";
  req.method = std::move(method);
  req.args = std::move(args);
  return req;
}

/// Rank -> item id in fixed catalog order: rank 0 is item 1001001 (category
/// 1, first product, first item). Gives the Zipf sampler a stable popularity
/// order whose head maps to one primary key — and therefore one shard.
std::int64_t item_for_rank(const Shape& shape, std::size_t rank) {
  const int per_category = shape.products_per_category * shape.items_per_product;
  const auto flat = static_cast<std::int64_t>(rank);
  const std::int64_t category = flat / per_category + 1;
  const std::int64_t within = flat % per_category;
  const std::int64_t product =
      shape.product_id(category, static_cast<int>(within / shape.items_per_product));
  return shape.item_id(product, static_cast<int>(within % shape.items_per_product));
}

/// Item popularity for the FSM models: Zipf(s) over the whole catalog, or
/// none (s = 0) for the uniform category/product chain.
std::optional<workload::ZipfSampler> zipf_for(const Shape& shape, double zipf_s) {
  if (zipf_s <= 0.0) return std::nullopt;
  return workload::ZipfSampler{static_cast<std::size_t>(shape.total_items()), zipf_s};
}

/// Table 2: 20 requests, Main 5% / Category 15% / Product 30% / Item 45% /
/// Search 5%, logically ordered (an Item always belongs to the previously
/// requested Product, a Product to the previous Category). scratch.w0
/// carries the current category, scratch.w1 the current product. With a
/// Zipf sampler, Item pages draw by global popularity rank instead of the
/// chain, concentrating views (and the buyers' writes) on the catalog head.
struct BrowserStep {
  Shape shape;
  std::optional<workload::ZipfSampler> zipf;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step >= static_cast<std::uint32_t>(PetStoreApp::kBrowserSessionLength)) {
      return std::nullopt;
    }
    if (step == 0) return page("Browser", "Main", "main", {});

    auto category = static_cast<std::int64_t>(scratch.w0);
    auto product = static_cast<std::int64_t>(scratch.w1);
    auto draw_product = [&] {
      if (category == 0) category = rng.uniform_int(1, shape.categories);
      product = shape.product_id(
          category, static_cast<int>(rng.uniform_int(0, shape.products_per_category - 1)));
    };
    static constexpr std::array<double, 5> kWeights = {5, 15, 30, 45, 5};
    std::optional<workload::PageRequest> req;
    switch (rng.weighted_index(kWeights)) {
      case 0:
        req = page("Browser", "Main", "main", {});
        break;
      case 1:
        category = rng.uniform_int(1, shape.categories);
        product = 0;
        req = page("Browser", "Category", "category", {Value{category}});
        break;
      case 2:
        draw_product();
        req = page("Browser", "Product", "product", {Value{product}});
        break;
      case 3: {
        std::int64_t item = 0;
        if (zipf) {
          item = item_for_rank(shape, zipf->sample(rng));
        } else {
          if (product == 0) draw_product();
          item = shape.item_id(
              product, static_cast<int>(rng.uniform_int(0, shape.items_per_product - 1)));
        }
        req = page("Browser", "Item", "item", {Value{item}});
        break;
      }
      default:
        req = page(
            "Browser", "Search", "search",
            {Value{std::string{kKeywords[static_cast<std::size_t>(rng.uniform_int(0, 4))]}}});
        break;
    }
    scratch.w0 = static_cast<std::uint64_t>(category);
    scratch.w1 = static_cast<std::uint64_t>(product);
    return req;
  }
};

/// Table 3: the fixed buyer scenario — sign in, buy one item, sign out. The
/// account lands in scratch.w0 and the item in scratch.w1 at step 0.
struct BuyerStep {
  Shape shape;
  std::optional<workload::ZipfSampler> zipf;

  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step == 0) {
      scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(1, shape.accounts));
      std::int64_t item = 0;
      if (zipf) {
        item = item_for_rank(shape, zipf->sample(rng));
      } else {
        const std::int64_t cat = rng.uniform_int(1, shape.categories);
        const std::int64_t prod = shape.product_id(
            cat, static_cast<int>(rng.uniform_int(0, shape.products_per_category - 1)));
        item = shape.item_id(
            prod, static_cast<int>(rng.uniform_int(0, shape.items_per_product - 1)));
      }
      scratch.w1 = static_cast<std::uint64_t>(item);
    }
    const auto account = static_cast<std::int64_t>(scratch.w0);
    const auto item = static_cast<std::int64_t>(scratch.w1);
    switch (step) {
      case 0: return page("Buyer", "Main", "main", {});
      case 1: return page("Buyer", "Signin", "signin", {});
      case 2: return page("Buyer", "Verify Signin", "verifysignin", {Value{account}});
      case 3: return page("Buyer", "Shopping Cart", "cart", {Value{item}});
      case 4: return page("Buyer", "Checkout", "checkout", {});
      case 5: return page("Buyer", "Place Order", "placeorder", {});
      case 6: return page("Buyer", "Billing", "billing", {});
      case 7: return page("Buyer", "Commit Order", "commitorder", {Value{account}, Value{item}});
      case 8: return page("Buyer", "Signout", "signout", {});
      default: return std::nullopt;
    }
  }
};

}  // namespace

workload::SessionFactory PetStoreApp::browser_factory(sim::RngStream rng) const {
  return workload::step_factory("Browser", BrowserStep{shape_, std::nullopt}, std::move(rng));
}

workload::SessionFactory PetStoreApp::buyer_factory(sim::RngStream rng) const {
  return workload::step_factory("Buyer", BuyerStep{shape_, std::nullopt}, std::move(rng));
}

AppDriver PetStoreApp::driver() const {
  AppDriver d;
  d.name = "Pet Store";
  d.app = &app_;
  d.meta = &meta_;
  d.install_database = [this](db::Database& db) { install_database(db); };
  d.bind_entities = [this](comp::Runtime& rt) { bind_entities(rt); };
  d.browser_factory = [this](sim::RngStream rng) { return browser_factory(std::move(rng)); };
  d.writer_factory = [this](sim::RngStream rng) { return buyer_factory(std::move(rng)); };
  d.fsm_browser_model = [this](double zipf_s) {
    return workload::step_model("Browser", BrowserStep{shape_, zipf_for(shape_, zipf_s)});
  };
  d.fsm_writer_model = [this](double zipf_s) {
    return workload::step_model("Buyer", BuyerStep{shape_, zipf_for(shape_, zipf_s)});
  };
  d.table_pages = table_pages();
  d.writer_pattern = "Buyer";
  d.db_colocated = false;  // Oracle on its own workstation, same LAN (§3.1)
  return d;
}

std::vector<std::pair<std::string, std::string>> PetStoreApp::table_pages() {
  return {{"Browser", "Main"},        {"Browser", "Category"},
          {"Browser", "Product"},     {"Browser", "Item"},
          {"Browser", "Search"},      {"Buyer", "Main"},
          {"Buyer", "Signin"},        {"Buyer", "Verify Signin"},
          {"Buyer", "Shopping Cart"}, {"Buyer", "Checkout"},
          {"Buyer", "Place Order"},   {"Buyer", "Billing"},
          {"Buyer", "Commit Order"},  {"Buyer", "Signout"}};
}

}  // namespace mutsvc::apps::petstore
