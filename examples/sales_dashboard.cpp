// Aggregate views in the warehouse (Section 1.2: "some views, e.g.,
// aggregate views need to use different maintenance algorithms").
//
// Sources:
//   "orders-db":  orders(region, product, amount)
//   "catalog-db": products(product, category)
//
// Warehouse views:
//   region_revenue   = SELECT region, COUNT(*), SUM(amount)
//                      FROM orders GROUP BY region
//   category_revenue = SELECT category, COUNT(*), SUM(amount)
//                      FROM orders JOIN products GROUP BY category
//   order_detail     = orders JOIN products   (plain SPJ view)
//
// All three views derive from the same orders stream. A dashboard that
// cross-checks "sum over regions == sum over categories" only works if
// the aggregate views are mutually consistent — MVC again, now with a
// per-view specialized (aggregate) maintenance algorithm in the mix.

#include <iostream>

#include "query/aggregate.h"
#include "system/warehouse_system.h"

namespace mvc {
namespace {

SystemConfig DashboardScenario() {
  SystemConfig config;
  config.sources["orders-db"] = {"orders"};
  config.sources["catalog-db"] = {"products"};
  config.schemas["orders"] = Schema::AllInt64({"region", "product", "amount"});
  config.schemas["products"] = Schema::AllInt64({"product", "category"});
  config.initial_data["orders"] = {Tuple{1, 10, 50}, Tuple{2, 11, 30}};
  config.initial_data["products"] = {Tuple{10, 100}, Tuple{11, 100},
                                     Tuple{12, 200}};

  ViewDefinition region_core;
  region_core.name = "region_revenue";
  region_core.relations = {"orders"};
  AggregateSpec region_spec;
  region_spec.group_by = {"region"};
  region_spec.aggregates = {
      AggregateColumn{AggregateFn::kCount, "", "orders"},
      AggregateColumn{AggregateFn::kSum, "amount", "revenue"}};

  ViewDefinition category_core;
  category_core.name = "category_revenue";
  category_core.relations = {"orders", "products"};
  category_core.predicate = Predicate::ColEqCol(
      ColumnRef{"orders", "product"}, ColumnRef{"products", "product"});
  category_core.projection = {ColumnRef{"products", "category"},
                              ColumnRef{"orders", "amount"}};
  AggregateSpec category_spec;
  category_spec.group_by = {"category"};
  category_spec.aggregates = {
      AggregateColumn{AggregateFn::kCount, "", "orders"},
      AggregateColumn{AggregateFn::kSum, "amount", "revenue"}};

  ViewDefinition detail;
  detail.name = "order_detail";
  detail.relations = {"orders", "products"};
  detail.predicate = Predicate::ColEqCol(ColumnRef{"orders", "product"},
                                         ColumnRef{"products", "product"});

  config.views = {region_core, category_core, detail};
  config.aggregates["region_revenue"] = region_spec;
  config.aggregates["category_revenue"] = category_spec;
  config.latency = LatencyModel::Uniform(400, 1800);
  config.vm_options.delta_cost = 600;
  config.seed = 29;

  // A burst of order activity, including a correction (delete) and a
  // repricing (modify).
  TimeMicros at = 1000;
  for (const Update& u :
       {Update::Insert("orders-db", "orders", Tuple{1, 12, 70}),
        Update::Insert("orders-db", "orders", Tuple{2, 10, 20}),
        Update::Insert("orders-db", "orders", Tuple{1, 11, 40}),
        Update::Delete("orders-db", "orders", Tuple{2, 11, 30}),
        Update::Modify("orders-db", "orders", Tuple{1, 10, 50},
                       Tuple{1, 10, 65}),
        Update::Insert("catalog-db", "products", Tuple{13, 200}),
        Update::Insert("orders-db", "orders", Tuple{2, 13, 90})}) {
    Injection inj;
    inj.at = at;
    inj.source = u.source;
    inj.updates = {u};
    config.workload.push_back(inj);
    at += 1700;
  }
  return config;
}

int64_t TotalRevenue(const Table& t, size_t revenue_col) {
  int64_t total = 0;
  t.Scan([&](const Tuple& row, int64_t count) {
    total += count * row[revenue_col].AsInt64();
  });
  return total;
}

}  // namespace
}  // namespace mvc

int main() {
  using namespace mvc;
  std::cout << "=== Sales dashboard: aggregate views under MVC ===\n\n";
  auto system = WarehouseSystem::Build(DashboardScenario());
  MVC_CHECK(system.ok()) << system.status().ToString();
  (*system)->Run();

  const WarehouseProcess& warehouse = (*system)->warehouse();
  const SnapshotHandle latest = warehouse.store().AcquireSnapshot();
  for (const TableVersion& view : latest.version().tables) {
    std::cout << view.Materialize().ToString() << "\n";
  }

  // Dashboard cross-check: both aggregates summarize the same orders.
  int64_t region_total =
      TotalRevenue(*warehouse.MaterializeView("region_revenue"), 2);
  int64_t category_total =
      TotalRevenue(*warehouse.MaterializeView("category_revenue"), 2);
  std::cout << "Cross-check: revenue by region = " << region_total
            << ", by category = " << category_total << " -> "
            << (region_total == category_total ? "CONSISTENT"
                                               : "INCONSISTENT")
            << "\n";

  // Per-commit cross-check: at *every* warehouse state, the two
  // aggregate totals agree — that is MVC observed through aggregates.
  // The oracle replays the committed action lists state by state.
  ConsistencyChecker checker = (*system)->MakeChecker();
  bool every_state_ok = true;
  Status replayed = checker.ReplayWarehouseStates(
      (*system)->recorder(), [&](int64_t, const Catalog& views) {
        auto r = views.GetTable("region_revenue");
        auto c = views.GetTable("category_revenue");
        if (TotalRevenue(**r, 2) != TotalRevenue(**c, 2)) {
          every_state_ok = false;
        }
        return Status::OK();
      }).status();
  every_state_ok = every_state_ok && replayed.ok();
  std::cout << "Cross-check at every intermediate warehouse state: "
            << (every_state_ok ? "CONSISTENT" : "INCONSISTENT") << "\n";

  Status strong = checker.CheckStrong((*system)->recorder());
  std::cout << "\nOracle (strong MVC): " << strong << "\n";
  return strong.ok() && every_state_ok &&
                 region_total == category_total
             ? 0
             : 1;
}
