// The paper's Section 1.1 motivating application: a warehouse serving
// customer inquiries off-line from the operational systems.
//
// Source "core-banking" hosts:
//   checking(cust, balance)   savings(cust, balance)
// Source "crm" hosts:
//   customers(cust, segment)
//
// Warehouse views:
//   account_summary = customers |><| checking |><| savings
//       (what a support agent sees when the customer calls — her
//        checking record must match her linked savings record)
//   promo_candidates = customers |><| savings WHERE savings.balance >= 50
//       (a marketing view that must pick the right customers, not ones
//        whose qualifying deposit is only half-applied)
//
// A "transfer" moves money between checking and savings: one source
// transaction with two updates. Under MVC both views change atomically;
// the agent can never see money that left checking but has not arrived
// in savings.

#include <iostream>

#include "system/warehouse_system.h"

namespace mvc {
namespace {

SystemConfig BankScenario() {
  SystemConfig config;
  config.sources["core-banking"] = {"checking", "savings"};
  config.sources["crm"] = {"customers"};
  config.schemas["checking"] = Schema::AllInt64({"cust", "cbal"});
  config.schemas["savings"] = Schema::AllInt64({"cust", "sbal"});
  config.schemas["customers"] = Schema::AllInt64({"cust", "segment"});
  config.initial_data["checking"] = {Tuple{100, 80}, Tuple{101, 45}};
  config.initial_data["savings"] = {Tuple{100, 20}, Tuple{101, 10}};
  config.initial_data["customers"] = {Tuple{100, 1}, Tuple{101, 2}};

  ViewDefinition summary;
  summary.name = "account_summary";
  summary.relations = {"customers", "checking", "savings"};
  summary.predicate = Predicate::And(
      {Predicate::ColEqCol(ColumnRef{"customers", "cust"},
                           ColumnRef{"checking", "cust"}),
       Predicate::ColEqCol(ColumnRef{"checking", "cust"},
                           ColumnRef{"savings", "cust"})});
  summary.projection = {
      ColumnRef{"customers", "cust"}, ColumnRef{"customers", "segment"},
      ColumnRef{"checking", "cbal"}, ColumnRef{"savings", "sbal"}};

  ViewDefinition promo;
  promo.name = "promo_candidates";
  promo.relations = {"customers", "savings"};
  promo.predicate = Predicate::And(
      {Predicate::ColEqCol(ColumnRef{"customers", "cust"},
                           ColumnRef{"savings", "cust"}),
       Predicate::ColCmpConst(CompareOp::kGe, ColumnRef{"savings", "sbal"},
                              Value(50))});
  promo.projection = {ColumnRef{"customers", "cust"},
                      ColumnRef{"customers", "segment"},
                      ColumnRef{"savings", "sbal"}};

  config.views = {summary, promo};
  config.latency = LatencyModel::Uniform(500, 1500);
  config.seed = 3;

  // Customer 100 transfers 60 from checking to savings — one atomic
  // source transaction with two updates. Afterwards she qualifies for
  // the promotion (savings 80 >= 50).
  Injection transfer;
  transfer.at = 1000;
  transfer.source = "core-banking";
  transfer.updates = {
      Update::Modify("core-banking", "checking", Tuple{100, 80},
                     Tuple{100, 20}),
      Update::Modify("core-banking", "savings", Tuple{100, 20},
                     Tuple{100, 80})};
  // A CRM segment change arrives concurrently for customer 101.
  Injection segment;
  segment.at = 1200;
  segment.source = "crm";
  segment.updates = {Update::Modify("crm", "customers", Tuple{101, 2},
                                    Tuple{101, 3})};
  config.workload = {transfer, segment};
  return config;
}

}  // namespace
}  // namespace mvc

int main() {
  using namespace mvc;
  std::cout << "=== Bank warehouse: customer inquiries need MVC "
               "(Section 1.1) ===\n\n";
  auto system = WarehouseSystem::Build(BankScenario());
  MVC_CHECK(system.ok()) << system.status().ToString();
  (*system)->Run();

  std::cout << "Warehouse views after the transfer:\n\n";
  const SnapshotHandle latest =
      (*system)->warehouse().store().AcquireSnapshot();
  for (const TableVersion& view : latest.version().tables) {
    std::cout << view.Materialize().ToString() << "\n";
  }

  std::cout << "Commit log (each line is one atomic warehouse "
               "transaction):\n";
  for (const auto& commit : (*system)->recorder().commits()) {
    std::cout << "  t=" << commit.committed_at << "us  "
              << commit.txn.ToString() << "\n";
  }

  auto checker = (*system)->MakeChecker();
  Status complete = checker.CheckComplete((*system)->recorder());
  std::cout << "\nMVC completeness: " << complete << "\n\n"
            << "Because the transfer's two updates form one transaction\n"
            << "(Section 6.2 semantics), account_summary and\n"
            << "promo_candidates moved together: no agent ever saw the\n"
            << "60 in neither account, and the promotion query never\n"
            << "fired on a half-applied deposit.\n";
  return complete.ok() ? 0 : 1;
}
