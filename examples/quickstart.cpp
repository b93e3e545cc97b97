// Quickstart: build the paper's Table 1 scenario, run it through the
// full WHIPS-MVC pipeline (source -> integrator -> view managers ->
// merge/SPA -> warehouse), and verify MVC completeness with the oracle.
//
//   V1 = R JOIN S,  V2 = S JOIN T;  one update inserts [2,3] into S.
//
// Under SPA both views change in a single warehouse transaction — the
// inconsistency window of Example 1 never exists.

#include <iostream>

#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

int main() {
  mvc::SystemConfig config = mvc::Table1Scenario();
  config.latency = mvc::LatencyModel::Uniform(1000, 500);

  auto system = mvc::WarehouseSystem::Build(std::move(config));
  if (!system.ok()) {
    std::cerr << "build failed: " << system.status() << "\n";
    return 1;
  }
  (*system)->Run();

  std::cout << "=== Warehouse views after the run ===\n";
  const mvc::SnapshotHandle latest =
      (*system)->warehouse().store().AcquireSnapshot();
  for (const mvc::TableVersion& view : latest.version().tables) {
    std::cout << view.Materialize().ToString();
  }

  std::cout << "\n=== Commit log ===\n";
  for (const auto& commit : (*system)->recorder().commits()) {
    std::cout << "t=" << commit.committed_at << "us  "
              << commit.txn.ToString() << "\n";
  }

  mvc::ConsistencyChecker checker = (*system)->MakeChecker();
  mvc::Status complete = checker.CheckComplete((*system)->recorder());
  std::cout << "\nMVC completeness: " << complete << "\n";

  mvc::FreshnessStats freshness = (*system)->recorder().ComputeFreshness();
  std::cout << "Freshness: " << freshness.ToString() << "\n";
  return complete.ok() ? 0 : 1;
}
