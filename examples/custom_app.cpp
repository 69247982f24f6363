// Custom application: bring your own component-based service.
//
// Models a small collaborative wiki — pages, revisions, full-text-ish
// search, and edits — defines its own usage patterns, runs it through the
// experiment harness on the Figure-2 testbed, and applies the design rules.
// This is the template to copy when studying an application of your own.
//
// Run: ./build/examples/custom_app
#include <iostream>

#include "apps/common/driver.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "workload/session_fsm.hpp"

using namespace mutsvc;
using comp::CallContext;
using db::Query;
using db::Row;
using db::Value;
using sim::Task;

namespace {

constexpr int kArticles = 200;

// Each usage pattern is one step function: the page for 0-based `step`, or
// nullopt to end the session, with every per-session value kept in the two
// scratch words and draws made on whatever rng the driver hands in.
// workload::step_factory replays it on the paper's coroutine driver and
// workload::step_model on the million-session FSM engine.

/// Reader pattern: front page, a few article views, one search.
struct ReaderStep {
  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step, workload::FsmScratch&,
                                                  Rng& rng) const {
    if (step >= 12) return std::nullopt;
    workload::PageRequest req;
    req.pattern = "Reader";
    req.component = "WikiWeb";
    if (step == 0) {
      req.page = "Front Page";
      req.method = "front";
    } else if ((step + 1) % 6 == 0) {
      req.page = "Search";
      req.method = "search";
      req.args = {Value{std::string{"history"}}};
    } else {
      req.page = "Article";
      req.method = "article";
      req.args = {Value{rng.uniform_int(1, kArticles)}};
    }
    return req;
  }
};

/// Editor pattern: view an article, edit it, review the revision list. The
/// article is drawn at step 0 and kept in scratch.w0.
struct EditorStep {
  template <class Rng>
  std::optional<workload::PageRequest> operator()(std::uint32_t step,
                                                  workload::FsmScratch& scratch,
                                                  Rng& rng) const {
    if (step == 0) scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(1, kArticles));
    workload::PageRequest req;
    req.pattern = "Editor";
    req.component = "WikiWeb";
    req.args = {Value{static_cast<std::int64_t>(scratch.w0)}};
    switch (step) {
      case 0:
        req.page = "Article";
        req.method = "article";
        return req;
      case 1:
        req.page = "Save Edit";
        req.method = "edit";
        return req;
      case 2:
        req.page = "Revisions";
        req.method = "revisions";
        return req;
      default:
        return std::nullopt;
    }
  }
};

struct WikiApp {
  comp::Application app{"wiki"};
  apps::AppMetadata meta;

  WikiApp() {
    auto& facade = app.define("WikiFacade", comp::ComponentKind::kStatelessSessionBean);
    facade.method({.name = "getArticle",
                   .cpu = sim::us(400),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto row = co_await ctx.read_entity("Article", ctx.arg_int(0));
                     if (row) ctx.result.push_back(std::move(row));
                   }});
    facade.method({.name = "getRevisions",
                   .cpu = sim::us(400),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto res = co_await ctx.cached_query(
                         Query::finder("revision", "article_id", ctx.arg(0)));
                     ctx.result = std::move(res.rows);
                   }});
    facade.method({.name = "search",
                   .cpu = sim::us(600),
                   .body = [](CallContext& ctx) -> Task<void> {
                     auto res = co_await ctx.cached_query(
                         Query::keyword_search("article", "title", ctx.arg_text(0)));
                     ctx.result = std::move(res.rows);
                   }});
    // Writes live in their own façade, kept at the main server: a façade
    // that writes must not be replicated to the edges, or every edit pays
    // one routed WAN call per statement (§4.2's unit-of-distribution rule).
    auto& writer = app.define("WikiWriter", comp::ComponentKind::kStatelessSessionBean);
    writer.method(
        {.name = "saveEdit",
         .cpu = sim::us(700),
         .body = [](CallContext& ctx) -> Task<void> {
           const std::int64_t article = ctx.arg_int(0);
           auto current = co_await ctx.read_entity("Article", article);
           const std::int64_t version = current ? db::as_int((*current)[2]) + 1 : 1;
           std::vector<Query> affected{Query::finder("revision", "article_id", Value{article})};
           const std::int64_t rev_id = ctx.allocate_id("revision");
           Row rev{rev_id, article, version};
           co_await ctx.insert_row("Revision", std::move(rev), affected);
           co_await ctx.write_entity("Article", article, "version", version);
         }});

    auto& web = app.define("WikiWeb", comp::ComponentKind::kServlet);
    auto page = [&](const char* name, const char* facade_method, sim::Duration latency) {
      std::string method = facade_method;
      web.method({.name = name,
                  .cpu = sim::ms(1),
                  .latency = latency,
                  .body = [method](CallContext& ctx) -> Task<void> {
                    std::vector<Value> args;
                    for (std::size_t i = 0; i < ctx.arg_count(); ++i) args.push_back(ctx.arg(i));
                    auto res = co_await ctx.call("WikiFacade", method, std::move(args));
                    ctx.result = std::move(res.rows);
                  }});
    };
    web.method({.name = "front", .cpu = sim::ms(1), .latency = sim::ms(8)});
    page("article", "getArticle", sim::ms(10));
    page("revisions", "getRevisions", sim::ms(10));
    page("search", "search", sim::ms(12));
    web.method({.name = "edit",
                .cpu = sim::ms(1),
                .latency = sim::ms(12),
                .body = [](CallContext& ctx) -> Task<void> {
                  (void)co_await ctx.call("WikiWriter", "saveEdit", ctx.arg(0));
                }});

    meta.name = "wiki";
    meta.web_components = {"WikiWeb"};
    meta.edge_facades = {"WikiFacade"};
    meta.query_facades = {"WikiFacade"};
    meta.main_facades = {"WikiWriter"};
    meta.entities = {"ArticleEJB", "RevisionEJB"};
    meta.read_mostly = {"Article"};
    meta.query_refresh = comp::QueryRefreshMode::kPush;
    app.define("ArticleEJB", comp::ComponentKind::kEntityBeanRW).local_interface_only();
    app.define("RevisionEJB", comp::ComponentKind::kEntityBeanRW).local_interface_only();
  }

  apps::AppDriver driver() {
    apps::AppDriver d;
    d.name = "Wiki";
    d.app = &app;
    d.meta = &meta;
    d.db_colocated = true;
    d.writer_pattern = "Editor";
    d.install_database = [](db::Database& db) {
      auto& articles = db.create_table("article", {{"id", db::ColumnType::kInt},
                                                   {"title", db::ColumnType::kText},
                                                   {"version", db::ColumnType::kInt}});
      auto& revisions = db.create_table("revision", {{"id", db::ColumnType::kInt},
                                                     {"article_id", db::ColumnType::kInt},
                                                     {"version", db::ColumnType::kInt}});
      revisions.create_index("article_id");
      std::int64_t rev = 0;
      for (std::int64_t a = 1; a <= kArticles; ++a) {
        articles.insert(Row{a, "A history of topic " + std::to_string(a), std::int64_t{1}});
        revisions.insert(Row{++rev, a, std::int64_t{1}});
      }
    };
    d.bind_entities = [](comp::Runtime& rt) {
      rt.bind_entity("Article", "article");
      rt.bind_entity("Revision", "revision");
    };
    d.browser_factory = [](sim::RngStream rng) {
      return workload::step_factory("Reader", ReaderStep{}, std::move(rng));
    };
    d.writer_factory = [](sim::RngStream rng) {
      return workload::step_factory("Editor", EditorStep{}, std::move(rng));
    };
    // The same two patterns on the FSM engine (ExperimentSpec::fsm_load);
    // the wiki has no item-popularity model, so the Zipf exponent is unused.
    d.fsm_browser_model = [](double) { return workload::step_model("Reader", ReaderStep{}); };
    d.fsm_writer_model = [](double) { return workload::step_model("Editor", EditorStep{}); };
    d.table_pages = {{"Reader", "Front Page"},
                     {"Reader", "Article"},
                     {"Reader", "Search"},
                     {"Editor", "Article"},
                     {"Editor", "Save Edit"},
                     {"Editor", "Revisions"}};
    return d;
  }
};

}  // namespace

int main() {
  std::cout << "=== Custom application: a wiki on the wide-area testbed ===\n\n";

  WikiApp wiki;
  apps::AppDriver driver = wiki.driver();
  core::HarnessCalibration cal;

  std::vector<std::unique_ptr<core::Experiment>> keep;
  std::vector<core::ConfigResult> results;
  for (core::ConfigLevel level :
       {core::ConfigLevel::kCentralized, core::ConfigLevel::kRemoteFacade,
        core::ConfigLevel::kQueryCaching, core::ConfigLevel::kAsyncUpdates}) {
    core::ExperimentSpec spec;
    spec.level = level;
    spec.duration = sim::sec(1200);
    spec.warmup = sim::sec(120);
    auto exp = std::make_unique<core::Experiment>(driver, spec, cal);
    exp->run();
    results.push_back(core::ConfigResult{level, &exp->results()});
    keep.push_back(std::move(exp));
  }

  core::print_paper_table(std::cout, driver, results);
  std::cout << "\nThe same ladder that served Pet Store and RUBiS applies unchanged:\n"
            << "article views and searches become edge-local; edits pay the centre\n"
            << "only under blocking push, and nothing under asynchronous updates.\n";
  return 0;
}
