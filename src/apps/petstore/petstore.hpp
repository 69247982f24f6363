#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/common/driver.hpp"
#include "apps/common/metadata.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "db/database.hpp"
#include "sim/random.hpp"
#include "workload/session.hpp"

namespace mutsvc::apps::petstore {

/// Catalog sizing, reflecting the §3.4 database enlargement ("added five
/// artificial categories, 50 products and 300 items").
struct Shape {
  int categories = 10;
  int products_per_category = 6;
  int items_per_product = 6;
  int accounts = 500;

  [[nodiscard]] std::int64_t product_id(std::int64_t category, int k) const {
    return category * 1000 + k + 1;
  }
  [[nodiscard]] std::int64_t item_id(std::int64_t product, int k) const {
    return product * 1000 + k + 1;
  }
  [[nodiscard]] int total_products() const { return categories * products_per_category; }
  [[nodiscard]] int total_items() const { return total_products() * items_per_product; }
};

/// Per-page service demands, calibrated so the *centralized local* column
/// of Table 6 lands near the paper's measurements; every other cell is a
/// model prediction.
struct Calibration {
  sim::Duration page_cpu = sim::ms(3);       // servlet + JSP render CPU
  sim::Duration ejb_cpu = sim::us(500);      // façade business method CPU

  // Non-CPU container residence per page (JBoss/Jetty 2001-era overhead).
  sim::Duration main_latency = sim::ms(70);
  sim::Duration category_latency = sim::ms(66);
  sim::Duration product_latency = sim::ms(66);
  sim::Duration item_latency = sim::ms(70);
  sim::Duration search_latency = sim::ms(76);
  sim::Duration signin_latency = sim::ms(62);
  sim::Duration verify_latency = sim::ms(64);
  sim::Duration cart_latency = sim::ms(92);
  sim::Duration checkout_latency = sim::ms(60);
  sim::Duration placeorder_latency = sim::ms(55);
  sim::Duration billing_latency = sim::ms(55);
  sim::Duration commit_latency = sim::ms(62);
  sim::Duration commit_tx_latency = sim::ms(66);  // order-processing tx overhead
  sim::Duration signout_latency = sim::ms(72);
};

/// Sun's Java Pet Store 1.1.2 (§2.2), modelled after Figure 1 / Table 1,
/// with the §3.4 modifications applied (no ejbStore on read-only
/// transactions, enlarged catalog, pooled connections).
class PetStoreApp {
 public:
  explicit PetStoreApp(Shape shape = {}, Calibration cal = {});

  [[nodiscard]] const comp::Application& application() const { return app_; }
  [[nodiscard]] const AppMetadata& metadata() const { return meta_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }

  /// Creates schema, populates catalog/accounts, registers aggregates.
  void install_database(db::Database& db) const;

  /// Binds entity-bean names to their tables on a runtime.
  void bind_entities(comp::Runtime& rt) const;

  /// Coroutine-driver session factories for the two usage patterns
  /// (Tables 2 and 3). Each pattern is one step function; the driver's FSM
  /// models replay the same two, where `zipf_s > 0` draws item popularity
  /// Zipf(s)-skewed over the whole catalog (rank 0 = item 1001001) instead
  /// of the uniform category/product chain.
  [[nodiscard]] workload::SessionFactory browser_factory(sim::RngStream rng) const;
  [[nodiscard]] workload::SessionFactory buyer_factory(sim::RngStream rng) const;

  /// (pattern, page) rows in Table 6's column order.
  [[nodiscard]] static std::vector<std::pair<std::string, std::string>> table_pages();

  /// Uniform handle for the experiment harness. The PetStoreApp must
  /// outlive the returned driver.
  [[nodiscard]] AppDriver driver() const;

  static constexpr int kBrowserSessionLength = 20;  // §3.2

 private:
  void define_components();
  static AppMetadata build_metadata();

  Shape shape_;
  Calibration cal_;
  comp::Application app_;
  AppMetadata meta_;
};

}  // namespace mutsvc::apps::petstore
