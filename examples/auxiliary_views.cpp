// MVC as a prerequisite of other maintenance algorithms (Section 1.1):
// to maintain an expensive primary view V = R |><| S |><| T cheaply, the
// warehouse materializes the auxiliary views A1 = R |><| S and
// A2 = S |><| T and computes V from them (Ross/Srivastava/Sudarshan
// style). That derivation is only correct when A1 and A2 are *mutually*
// consistent at every state V is computed — precisely what the merge
// process guarantees.
//
// This example maintains A1 and A2 under SPA and, after every warehouse
// commit, derives V from the two auxiliaries and checks it against V
// evaluated directly over the mapped source state.

#include <iostream>

#include "common/string_util.h"
#include "query/evaluator.h"
#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

SystemConfig AuxScenario() {
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}, Tuple{5, 6}};
  config.initial_data["S"] = {Tuple{6, 7}};
  config.initial_data["T"] = {Tuple{3, 4}, Tuple{7, 8}};

  ViewDefinition a1 = PaperV1();  // R |><| S, columns (A, B, C)
  a1.name = "A1";
  ViewDefinition a2 = PaperV2();  // S |><| T, columns (B, C, D)
  a2.name = "A2";
  config.views = {a1, a2};
  config.latency = LatencyModel::Uniform(400, 2500);
  config.seed = 11;

  // A stream of S updates — each touches both auxiliaries.
  TimeMicros at = 1000;
  for (const Update& u :
       {Update::Insert("src0", "S", Tuple{2, 3}),
        Update::Insert("src0", "S", Tuple{2, 7}),
        Update::Delete("src0", "S", Tuple{6, 7}),
        Update::Insert("src0", "S", Tuple{6, 3})}) {
    Injection inj;
    inj.at = at;
    inj.source = "src0";
    inj.updates = {u};
    config.workload.push_back(inj);
    at += 1500;
  }
  return config;
}

/// Derives V = R|><|S|><|T from the materialized A1(A,B,C), A2(B,C,D):
/// join on (B, C).
Result<Table> DeriveV(const Catalog& views) {
  MVC_ASSIGN_OR_RETURN(const Table* a1, views.GetTable("A1"));
  MVC_ASSIGN_OR_RETURN(const Table* a2, views.GetTable("A2"));
  Table v("V", Schema::AllInt64({"A", "B", "C", "D"}));
  Status st;
  a1->Scan([&](const Tuple& left, int64_t lc) {
    a2->Scan([&](const Tuple& right, int64_t rc) {
      if (!st.ok()) return;
      if (left[1] == right[0] && left[2] == right[1]) {
        st = v.Insert(Tuple{left[0], left[1], left[2], right[2]}, lc * rc);
      }
    });
  });
  MVC_RETURN_IF_ERROR(st);
  return v;
}

}  // namespace
}  // namespace mvc

int main() {
  using namespace mvc;
  std::cout << "=== Auxiliary views: V = R|><|S|><|T derived from "
               "A1 = R|><|S and A2 = S|><|T ===\n\n";
  auto system = WarehouseSystem::Build(AuxScenario());
  MVC_CHECK(system.ok()) << system.status().ToString();
  (*system)->Run();

  // Oracle for V: replay the numbered updates over the initial base and
  // evaluate V directly at each mapped source state.
  ViewDefinition v_def;
  v_def.name = "V";
  v_def.relations = {"R", "S", "T"};
  v_def.predicate = Predicate::And(
      {Predicate::ColEqCol(ColumnRef{"R", "B"}, ColumnRef{"S", "B"}),
       Predicate::ColEqCol(ColumnRef{"S", "C"}, ColumnRef{"T", "C"})});
  v_def.projection = {ColumnRef{"R", "A"}, ColumnRef{"R", "B"},
                      ColumnRef{"S", "C"}, ColumnRef{"T", "D"}};
  std::map<std::string, Schema> schemas = {
      {"R", Schema::AllInt64({"A", "B"})},
      {"S", Schema::AllInt64({"B", "C"})},
      {"T", Schema::AllInt64({"C", "D"})},
      {"Q", Schema::AllInt64({"D", "E"})}};
  auto v_bound = std::move(BoundView::Bind(v_def, schemas)).value();

  Catalog base = (*system)->initial_base().Clone();
  std::map<UpdateId, const SourceTransaction*> by_id;
  for (const auto& u : (*system)->recorder().updates()) {
    by_id[u.id] = &u.txn;
  }

  // The warehouse states themselves come from the oracle's replay of
  // the committed action lists.
  auto checker = (*system)->MakeChecker();
  const auto& commits = (*system)->recorder().commits();
  UpdateId replayed = 0;
  bool all_ok = true;
  Status replay = checker.ReplayWarehouseStates(
      (*system)->recorder(), [&](int64_t k, const Catalog& views) {
        if (k == 0) return Status::OK();
        const RecordedCommit& commit = commits[static_cast<size_t>(k) - 1];
        // Advance the replayed base to the commit's source state.
        for (UpdateId id : commit.txn.rows) {
          for (; replayed < id;) {
            ++replayed;
            auto it = by_id.find(replayed);
            if (it == by_id.end()) continue;
            for (const Update& u : it->second->updates) {
              auto table = base.GetTable(u.relation);
              MVC_CHECK(table.ok());
              MVC_CHECK(
                  ViewEvaluator::UpdateToBaseDelta(u).ApplyTo(*table).ok());
            }
          }
        }
        auto direct =
            ViewEvaluator::Evaluate(v_bound, CatalogProvider(&base));
        MVC_CHECK(direct.ok());
        auto derived = DeriveV(views);
        MVC_CHECK(derived.ok());
        bool match = derived->ContentsEqual(*direct);
        all_ok = all_ok && match;
        std::cout << "commit rows=[" << JoinToString(commit.txn.rows, ",")
                  << "]: derived V has " << derived->NumRows()
                  << " rows, direct V(ss) has " << direct->NumRows()
                  << " rows -> " << (match ? "MATCH" : "MISMATCH") << "\n";
        return Status::OK();
      }).status();
  all_ok = all_ok && replay.ok();

  const auto verdict = checker.CheckComplete((*system)->recorder());
  std::cout << "\nAuxiliary views MVC completeness: " << verdict << "\n"
            << (all_ok ? "V derived from (A1, A2) was correct at every "
                         "warehouse state — the derivation is safe "
                         "because the auxiliaries are mutually "
                         "consistent.\n"
                       : "Derivation mismatch!\n");
  // Both the derivation sweep and the oracle's verdict gate the exit
  // code: this binary doubles as a ctest.
  return (all_ok && verdict.ok()) ? 0 : 1;
}
