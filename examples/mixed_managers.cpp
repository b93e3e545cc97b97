// Heterogeneous deployment (Sections 1.2, 6.1, 6.3): every view picks
// the maintenance algorithm that suits it — a copy view refreshes
// periodically, an aggregate-ish selective view uses a strongly
// consistent manager, a plain join stays complete — and the planner
// partitions the views into disjoint groups, giving each group its own
// merge process running the weakest-sufficient painting algorithm.

#include <iostream>

#include "common/string_util.h"
#include "merge/merge_engine.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

SystemConfig MixedScenario() {
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}, Tuple{5, 6}};
  config.initial_data["T"] = {Tuple{3, 4}};
  config.initial_data["Q"] = {Tuple{4, 9}, Tuple{8, 2}};

  // Group 1 (relations R, S, T): V1 complete, V2 strong.
  // Group 2 (relation Q): V3 maintained by periodic refresh.
  config.views = {PaperV1(), PaperV2(), PaperV3()};
  config.manager_kinds = {{"V2", ManagerKind::kStrong},
                          {"V3", ManagerKind::kPeriodic}};
  config.periodic_options.period = 20000;
  config.vm_options.delta_cost = 1000;
  config.num_merge_processes = 2;
  config.latency = LatencyModel::Uniform(300, 1200);
  config.seed = 19;

  TimeMicros at = 1000;
  for (const Update& u :
       {Update::Insert("src0", "S", Tuple{2, 3}),
        Update::Insert("src1", "Q", Tuple{5, 7}),
        Update::Insert("src0", "S", Tuple{6, 3}),
        Update::Insert("src1", "T", Tuple{3, 6}),
        Update::Delete("src1", "Q", Tuple{8, 2}),
        Update::Modify("src0", "S", Tuple{2, 3}, Tuple{2, 4})}) {
    Injection inj;
    inj.at = at;
    inj.source = u.source;
    inj.updates = {u};
    config.workload.push_back(inj);
    at += 2500;
  }
  return config;
}

}  // namespace
}  // namespace mvc

int main() {
  using namespace mvc;
  std::cout << "=== Mixed view managers + distributed merge ===\n\n";
  auto system = WarehouseSystem::Build(MixedScenario());
  MVC_CHECK(system.ok()) << system.status().ToString();

  std::cout << "Deployment plan:\n";
  for (size_t g = 0; g < system.value()->view_groups().size(); ++g) {
    const auto& group = system.value()->view_groups()[g];
    std::cout << "  merge-" << g << " ["
              << MergeAlgorithmToString(
                     system.value()->merges()[g]->engine().algorithm())
              << "]  views {" << JoinToString(group.views, ", ")
              << "}  over relations {" << JoinToString(group.relations, ", ")
              << "}\n";
  }
  std::cout << "\nView managers:\n";
  for (const auto& vm : system.value()->view_managers()) {
    std::cout << "  " << vm->name() << ": "
              << ConsistencyLevelToString(vm->level()) << "\n";
  }

  (*system)->Run();

  std::cout << "\nFinal warehouse contents:\n";
  const SnapshotHandle latest =
      (*system)->warehouse().store().AcquireSnapshot();
  for (const TableVersion& view : latest.version().tables) {
    std::cout << view.Materialize().ToString();
  }

  auto checker = (*system)->MakeChecker();
  Status strong = checker.CheckStrong((*system)->recorder());
  std::cout << "\nSystem-wide MVC (strong, the weakest manager's level): "
            << strong << "\n"
            << "Freshness: "
            << (*system)->recorder().ComputeFreshness().ToString() << "\n";
  return strong.ok() ? 0 : 1;
}
