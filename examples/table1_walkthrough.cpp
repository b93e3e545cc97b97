// Walkthrough of the paper's Example 1 / Table 1, narrated step by step.
//
// Shows (a) the anomaly — maintaining each view independently leaves a
// window where V1 reflects the new S tuple and V2 does not — and (b) how
// the merge process's ViewUpdateTable holds V1's action list until V2's
// arrives so the warehouse never exposes that window.

#include <iostream>

#include "merge/merge_engine.h"
#include "query/evaluator.h"
#include "storage/id_registry.h"
#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

const IdRegistry* Names() {
  static const IdRegistry* reg = [] {
    auto* r = new IdRegistry();
    r->InternViews({"V1", "V2"});
    return r;
  }();
  return reg;
}

void Walkthrough() {
  std::cout <<
      "Setup (Table 1):\n"
      "  R(A,B) = {[1,2]}    S(B,C) = {}    T(C,D) = {[3,4]}\n"
      "  V1 = R |><| S   (warehouse view, initially empty)\n"
      "  V2 = S |><| T   (warehouse view, initially empty)\n\n"
      "At t1, the source inserts [2,3] into S. Both views are affected:\n"
      "  delta(V1) = +[1,2,3]   delta(V2) = +[2,3,4]\n\n";

  std::cout <<
      "-- Without MVC ------------------------------------------------\n"
      "V1's manager finishes first and its delta is applied at t2;\n"
      "V2's delta only lands at t3. Between t2 and t3 a warehouse reader\n"
      "joining customer data across the two views sees S's new tuple in\n"
      "V1 but not in V2 — the views match NO single source state.\n\n";

  std::cout <<
      "-- With the merge process (SPA) -------------------------------\n"
      "The integrator numbers the update U1 and tells the merge process\n"
      "REL_1 = {V1, V2}. The ViewUpdateTable tracks what has arrived:\n\n";

  const ViewId v1 = *Names()->FindView("V1");
  const ViewId v2 = *Names()->FindView("V2");
  SpaEngine engine({v1, v2}, Names());
  std::vector<WarehouseTransaction> out;
  engine.ReceiveRelSet(1, {v1, v2}, &out);
  std::cout << engine.vut().ToString() << "\n";

  std::cout << "V1's action list arrives first -> its cell turns red, but\n"
               "the row still has a white cell, so SPA holds it:\n\n";
  ActionList al1;
  al1.view = v1;
  al1.update = 1;
  al1.first_update = 1;
  al1.covered = {1};
  al1.delta.target = "V1";
  al1.delta.Add(Tuple{1, 2, 3}, 1);
  engine.ReceiveActionList(al1, &out);
  std::cout << engine.vut().ToString() << "\n";
  MVC_CHECK(out.empty());

  std::cout << "V2's action list arrives -> the row is complete; SPA emits\n"
               "ONE warehouse transaction updating both views, then purges\n"
               "the row:\n\n";
  ActionList al2;
  al2.view = v2;
  al2.update = 1;
  al2.first_update = 1;
  al2.covered = {1};
  al2.delta.target = "V2";
  al2.delta.Add(Tuple{2, 3, 4}, 1);
  engine.ReceiveActionList(al2, &out);
  for (const auto& txn : out) std::cout << "  " << txn.ToString(Names()) << "\n";
  std::cout << "\nRemaining VUT rows: " << engine.open_rows() << "\n\n";
}

}  // namespace
}  // namespace mvc

int main() {
  std::cout << "=== Example 1 / Table 1 walkthrough =====================\n\n";
  mvc::Walkthrough();

  std::cout <<
      "-- End to end --------------------------------------------------\n"
      "Running the same scenario through the full system (sources ->\n"
      "integrator -> view managers -> merge -> warehouse) and checking\n"
      "the formal definitions of Section 2:\n\n";
  auto system = mvc::WarehouseSystem::Build(mvc::Table1Scenario());
  MVC_CHECK(system.ok());
  (*system)->Run();
  const mvc::SnapshotHandle latest =
      (*system)->warehouse().store().AcquireSnapshot();
  for (const mvc::TableVersion& view : latest.version().tables) {
    std::cout << view.Materialize().ToString();
  }
  auto checker = (*system)->MakeChecker();
  std::cout << "\nMVC complete:   "
            << checker.CheckComplete((*system)->recorder()) << "\n"
            << "MVC strong:     "
            << checker.CheckStrong((*system)->recorder()) << "\n"
            << "MVC convergent: "
            << checker.CheckConvergent((*system)->recorder()) << "\n";
  return 0;
}
