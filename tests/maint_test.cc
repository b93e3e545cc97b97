// Maintenance-equivalence battery for self-maintaining views with
// shared delta plans (src/maint/).
//
// The contract under test: a SelfMaintainingVm answers maintenance
// entirely from its auxiliary store yet emits action lists that are
// *byte-identical* to the per-view CompleteViewManager path, so the
// merge/VUT/warehouse/checker pipeline downstream cannot tell the two
// apart. The battery checks that at three levels:
//
//   1. unit:     the auxiliary planner dedups filters, the shared plan
//                factors common chain prefixes, and one plan pass
//                reproduces per-view EvaluateDelta bag-exactly;
//   2. system:   a randomized overlapping-SPJ sweep runs every scenario
//                twice — per-view managers with Strobe-style query
//                rounds vs one shared-plan self-maintaining manager per
//                group — and every AL stream and the final warehouse
//                state must match bit for bit, on the deterministic
//                simulator AND on real threads;
//   3. negative: the injected stale-auxiliary mutation must break the
//                equivalence (the oracle catches it; see explore_test
//                for the bounded-schedule counterexample).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "maint/aux_planner.h"
#include "maint/self_maintaining_vm.h"
#include "maint/shared_plan.h"
#include "query/evaluator.h"
#include "query/relevance.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

// ---------------------------------------------------------------------
// Unit: auxiliary planner.
// ---------------------------------------------------------------------

class MaintUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schemas_ = {{"R", Schema::AllInt64({"A", "B"})},
                {"S", Schema::AllInt64({"B", "C"})},
                {"T", Schema::AllInt64({"C", "D"})}};
  }

  const BoundView* Bind(ViewDefinition def) {
    auto bound = BoundView::Bind(def, schemas_);
    MVC_CHECK(bound.ok()) << bound.status().ToString();
    owned_.push_back(std::make_unique<BoundView>(std::move(bound).value()));
    return owned_.back().get();
  }

  // V = R |><| S on B, with an optional selection on S.C.
  ViewDefinition JoinRS(const std::string& name, int64_t s_c_less_than = 0) {
    ViewDefinition def;
    def.name = name;
    def.relations = {"R", "S"};
    std::vector<Predicate> preds;
    preds.push_back(
        Predicate::ColEqCol(ColumnRef{"R", "B"}, ColumnRef{"S", "B"}));
    if (s_c_less_than != 0) {
      preds.push_back(Predicate::ColCmpConst(CompareOp::kLt,
                                             ColumnRef{"S", "C"},
                                             s_c_less_than));
    }
    def.predicate = Predicate::And(std::move(preds));
    return def;
  }

  std::map<std::string, Schema> schemas_;
  std::vector<std::unique_ptr<BoundView>> owned_;
};

TEST_F(MaintUnitTest, PlannerDedupsIdenticalFilters) {
  // Two views with the same selection over S share one S auxiliary; the
  // unfiltered R auxiliary is shared too. A third view with a different
  // S filter gets its own.
  std::vector<const BoundView*> views = {Bind(JoinRS("V1", 50)),
                                         Bind(JoinRS("V2", 50)),
                                         Bind(JoinRS("V3", 7))};
  auto plan = PlanAuxiliaries(views);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // R (shared, unfiltered), S<50 (shared), S<7: three auxiliaries for
  // six (view, relation) slots.
  EXPECT_EQ(plan->auxiliaries.size(), 3u);
  EXPECT_EQ(&plan->AuxFor("V1", 0), &plan->AuxFor("V2", 0));
  EXPECT_EQ(&plan->AuxFor("V1", 1), &plan->AuxFor("V2", 1));
  EXPECT_NE(&plan->AuxFor("V1", 1), &plan->AuxFor("V3", 1));

  const AuxiliaryView& shared_s = plan->AuxFor("V1", 1);
  EXPECT_EQ(shared_s.relation, "S");
  EXPECT_EQ(shared_s.dependent_views,
            (std::vector<std::string>{"V1", "V2"}));
  // Prefixed schema keeps downstream join schemas unambiguous.
  EXPECT_EQ(shared_s.schema.column(0).name, "S.B");
}

TEST_F(MaintUnitTest, PlannerNameOffsetKeepsGroupsDisjoint) {
  std::vector<const BoundView*> views = {Bind(JoinRS("V1"))};
  auto a = PlanAuxiliaries(views, 0);
  auto b = PlanAuxiliaries(views, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::string> a_names, b_names;
  for (const auto& aux : a->auxiliaries) a_names.push_back(aux.name);
  for (const auto& aux : b->auxiliaries) b_names.push_back(aux.name);
  for (const std::string& name : a_names) {
    EXPECT_EQ(std::count(b_names.begin(), b_names.end(), name), 0)
        << name << " reused across offsets";
  }
}

// ---------------------------------------------------------------------
// Unit: shared delta plan.
// ---------------------------------------------------------------------

TEST_F(MaintUnitTest, PlanSharesChainsAcrossProjectionVariants) {
  // Identical join + selection, different projections: the entire chain
  // is shared and only the routes differ.
  ViewDefinition wide = JoinRS("Wide", 50);
  ViewDefinition narrow = JoinRS("Narrow", 50);
  narrow.projection = {ColumnRef{"R", "A"}, ColumnRef{"S", "C"}};
  std::vector<const BoundView*> views = {Bind(wide), Bind(narrow)};

  auto aux = PlanAuxiliaries(views);
  ASSERT_TRUE(aux.ok()) << aux.status().ToString();
  auto plan = SharedDeltaPlan::Build(views, &*aux);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Per view: one chain per base relation, each of length 2 (root +
  // one join step) = 4 steps per view, 8 unshared steps total. Sharing
  // collapses them to 4 distinct nodes.
  EXPECT_EQ(plan->num_unshared_steps(), 8u);
  EXPECT_EQ(plan->nodes().size(), 4u);
  EXPECT_EQ(plan->num_shared_nodes(), 4u);
  for (const auto& node : plan->nodes()) {
    EXPECT_EQ(node.dependent_views.size(), 2u) << node.signature;
  }
}

TEST_F(MaintUnitTest, PlanSharesRootsButSplitsDivergentTails) {
  // Same unfiltered R root; the S join step differs by selection, so
  // the tails split.
  std::vector<const BoundView*> views = {Bind(JoinRS("V1", 50)),
                                         Bind(JoinRS("V2", 7))};
  auto aux = PlanAuxiliaries(views);
  ASSERT_TRUE(aux.ok());
  auto plan = SharedDeltaPlan::Build(views, &*aux);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // DeltaR roots: shared unfiltered R (1). DeltaS roots: one per
  // filter (2). Join steps: all four distinct (different aux or
  // different parent). 1 + 2 + 4 = 7 nodes from 8 unshared steps.
  EXPECT_EQ(plan->num_unshared_steps(), 8u);
  EXPECT_EQ(plan->nodes().size(), 7u);
  EXPECT_EQ(plan->num_shared_nodes(), 1u);
}

TEST_F(MaintUnitTest, PlanEvaluationMatchesPerViewEvaluateDelta) {
  // Bag-exactness on multiplicities, deletes, and selections: one plan
  // pass must reproduce ViewEvaluator::EvaluateDelta per view.
  std::vector<const BoundView*> views = {Bind(JoinRS("V1", 50)),
                                         Bind(JoinRS("V2", 7))};
  auto aux_plan = PlanAuxiliaries(views);
  ASSERT_TRUE(aux_plan.ok());
  auto plan = SharedDeltaPlan::Build(views, &*aux_plan);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Base state: R has dup rows, S straddles both selection cuts.
  Catalog base;
  ASSERT_TRUE(base.CreateTable("R", schemas_.at("R")).ok());
  ASSERT_TRUE(base.CreateTable("S", schemas_.at("S")).ok());
  Table* r = *base.GetTable("R");
  Table* s = *base.GetTable("S");
  ASSERT_TRUE(r->Insert({1, 2}, 2).ok());
  ASSERT_TRUE(r->Insert({9, 3}, 1).ok());
  ASSERT_TRUE(s->Insert({2, 5}, 3).ok());
  ASSERT_TRUE(s->Insert({2, 40}, 1).ok());
  ASSERT_TRUE(s->Insert({3, 6}, 1).ok());

  // Auxiliary store: filtered copies under the aux schemas.
  Catalog aux_store;
  for (const AuxiliaryView& aux : aux_plan->auxiliaries) {
    ASSERT_TRUE(aux_store.CreateTable(aux.name, aux.schema).ok());
    Table* t = *aux_store.GetTable(aux.name);
    (*base.GetTable(aux.relation))->ForEachRow([&](const Tuple& tu,
                                                   int64_t c) {
      if (TupleMayAffectView(*aux.filter_view, aux.relation, tu)) {
        ASSERT_TRUE(t->Insert(tu, c).ok());
      }
    });
  }

  // A mixed delta on S: insert one matching row, delete a multiple one.
  TableDelta delta_s;
  delta_s.target = "S";
  delta_s.Add({2, 10}, 1);
  delta_s.Add({2, 5}, -2);

  std::vector<TableDelta> got(2);
  got[0].target = "V1";
  got[1].target = "V2";
  int64_t evals = 0;
  ASSERT_TRUE(plan->EvaluateUpdate("S", delta_s,
                                   CatalogProvider(&aux_store), &got,
                                   &evals)
                  .ok());
  EXPECT_GT(evals, 0);

  for (size_t i = 0; i < views.size(); ++i) {
    auto want = ViewEvaluator::EvaluateDelta(*views[i], "S", delta_s,
                                             CatalogProvider(&base));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    want->Normalize();
    got[i].Normalize();
    EXPECT_EQ(got[i].rows, want->rows) << views[i]->name();
  }

  // A delta on R flows through the other chain direction.
  TableDelta delta_r;
  delta_r.target = "R";
  delta_r.Add({7, 2}, 1);
  std::vector<TableDelta> got_r(2);
  ASSERT_TRUE(plan->EvaluateUpdate("R", delta_r,
                                   CatalogProvider(&aux_store), &got_r,
                                   nullptr)
                  .ok());
  for (size_t i = 0; i < views.size(); ++i) {
    auto want = ViewEvaluator::EvaluateDelta(*views[i], "R", delta_r,
                                             CatalogProvider(&base));
    ASSERT_TRUE(want.ok());
    want->Normalize();
    got_r[i].Normalize();
    EXPECT_EQ(got_r[i].rows, want->rows) << views[i]->name();
  }
}

TEST_F(MaintUnitTest, SharedNodeEvaluatedOncePerDelta) {
  // Two projection variants of one view: the whole chain is shared, so
  // a delta pass runs exactly chain-length evaluations, not 2x.
  ViewDefinition narrow = JoinRS("Narrow", 50);
  narrow.projection = {ColumnRef{"R", "A"}};
  std::vector<const BoundView*> views = {Bind(JoinRS("Wide", 50)),
                                         Bind(narrow)};
  auto aux = PlanAuxiliaries(views);
  ASSERT_TRUE(aux.ok());
  auto plan = SharedDeltaPlan::Build(views, &*aux);
  ASSERT_TRUE(plan.ok());

  Catalog aux_store;
  for (const AuxiliaryView& a : aux->auxiliaries) {
    ASSERT_TRUE(aux_store.CreateTable(a.name, a.schema).ok());
  }
  Table* s_aux = nullptr;
  for (const AuxiliaryView& a : aux->auxiliaries) {
    if (a.relation == "S") s_aux = *aux_store.GetTable(a.name);
  }
  ASSERT_NE(s_aux, nullptr);
  ASSERT_TRUE(s_aux->Insert({2, 5}, 1).ok());

  TableDelta delta_r;
  delta_r.target = "R";
  delta_r.Add({1, 2}, 1);
  std::vector<TableDelta> acc(2);
  int64_t evals = 0;
  ASSERT_TRUE(plan->EvaluateUpdate("R", delta_r,
                                   CatalogProvider(&aux_store), &acc,
                                   &evals)
                  .ok());
  // Root DeltaR + one join step, shared by both views: 2 evals, and
  // both views still received their rows.
  EXPECT_EQ(evals, 2);
  EXPECT_EQ(acc[0].rows.size(), 1u);
  EXPECT_EQ(acc[1].rows.size(), 1u);
}

// ---------------------------------------------------------------------
// System sweep: per-view query rounds vs shared-plan self-maintenance.
// ---------------------------------------------------------------------

struct EquivCase {
  std::string name;
  uint64_t seed;
  bool use_threads;
  size_t merge_processes;
  int updates_per_txn;
  bool pruning;
};

std::string EquivCaseName(const ::testing::TestParamInfo<EquivCase>& info) {
  return info.param.name;
}

SystemConfig BaseScenario(const EquivCase& c, bool insert_only = false) {
  WorkloadSpec spec;
  spec.seed = c.seed;
  if (insert_only) {
    // The stale-auxiliary mutation drops a base change; with deletes in
    // the stream the resulting garbage delta may delete a row the
    // warehouse never saw and abort the run before the oracle can rule.
    // Insert-only keeps the corruption silently applicable.
    spec.delete_fraction = 0;
    spec.modify_fraction = 0;
  }
  // Bit-identity across the two architectures requires both runs to
  // assign the same global update numbers, so arrival order at the
  // integrator must not depend on the (architecture-dependent) message
  // population: fixed network latency keeps the simulator's numbering
  // deterministic, and the thread runs use one source so the single
  // FIFO channel fixes the order under real-time racing too.
  spec.num_sources = c.use_threads ? 1 : 2;
  spec.relations_per_source = c.use_threads ? 4 : 2;
  // Few relations + many views = heavily overlapping chains, the
  // sharing-friendly shape the plan exists for.
  spec.num_views = 6;
  spec.max_view_width = 3;
  spec.selection_probability = 0.6;
  spec.num_transactions = 30;
  spec.updates_per_transaction = c.updates_per_txn;
  spec.mean_interarrival = 700;
  auto config = GenerateScenario(spec);
  MVC_CHECK(config.ok()) << config.status().ToString();
  config->num_merge_processes = c.merge_processes;
  config->integrator.relevance_pruning = c.pruning;
  config->latency = LatencyModel::Fixed(300);
  config->warehouse.apply_jitter = 500;
  config->warehouse.seed = c.seed * 13 + 1;
  config->seed = c.seed * 7 + 3;
  config->use_threads = c.use_threads;
  return std::move(*config);
}

/// Per-view AL streams, keyed by view name and ordered by update id.
/// Complete-level managers emit exactly one AL per relevant update per
/// view, so (view, update) identifies an AL in both architectures.
std::map<std::string, std::vector<ActionList>> CollectAls(
    const WarehouseSystem& system) {
  std::map<ViewId, std::string> name_of;
  for (const BoundView& view : system.bound_views()) {
    name_of[*system.registry().FindView(view.name())] = view.name();
  }
  std::map<std::string, std::vector<ActionList>> streams;
  for (const RecordedCommit& commit : system.recorder().commits()) {
    for (const ActionList& al : commit.txn.actions) {
      streams[name_of.at(al.view)].push_back(al);
    }
  }
  for (auto& [view, als] : streams) {
    std::sort(als.begin(), als.end(),
              [](const ActionList& a, const ActionList& b) {
                return a.update < b.update;
              });
  }
  return streams;
}

class MaintEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MaintEquivalenceTest, AlStreamsAndFinalStateBitIdentical) {
  const EquivCase& c = GetParam();

  // Run A: per-view complete managers, Strobe-style source query
  // rounds on every update (the architecture self-maintenance exists
  // to replace).
  SystemConfig config_a = BaseScenario(c);
  config_a.vm_options.issue_query_round = true;
  auto run_a = WarehouseSystem::Build(std::move(config_a));
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  (*run_a)->Run();

  // Run B: one self-maintaining group manager per merge group, shared
  // delta plans, zero source round trips.
  SystemConfig config_b = BaseScenario(c);
  config_b.maint.self_maintain = true;
  auto run_b = WarehouseSystem::Build(std::move(config_b));
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  (*run_b)->Run();

  // Precondition for bit-identity: both runs numbered the same source
  // transactions the same way.
  const auto& updates_a = (*run_a)->recorder().updates();
  const auto& updates_b = (*run_b)->recorder().updates();
  ASSERT_EQ(updates_a.size(), updates_b.size());
  for (size_t i = 0; i < updates_a.size(); ++i) {
    ASSERT_EQ(updates_a[i].id, updates_b[i].id);
    const SourceTransaction& ta = updates_a[i].txn;
    const SourceTransaction& tb = updates_b[i].txn;
    ASSERT_EQ(ta.updates.size(), tb.updates.size()) << "update " << i;
    for (size_t u = 0; u < ta.updates.size(); ++u) {
      ASSERT_EQ(ta.updates[u].relation, tb.updates[u].relation)
          << "update " << i << " differs: the runs numbered the stream "
             "differently, so AL comparison would be apples to oranges";
      ASSERT_EQ(ta.updates[u].tuple, tb.updates[u].tuple);
    }
  }

  // The per-view run really used the source-query machinery; the
  // self-maintaining run never touched it.
  int64_t rounds_a = 0;
  for (const auto& vm : (*run_a)->view_managers()) {
    rounds_a += vm->query_rounds_issued();
  }
  EXPECT_GT(rounds_a, 0);
  ASSERT_FALSE((*run_b)->maint_vms().empty());
  int64_t avoided = 0;
  for (const auto& vm : (*run_b)->maint_vms()) {
    EXPECT_GT(vm->shared_node_evals(), 0);
    avoided += vm->query_rounds_avoided();
  }
  EXPECT_GT(avoided, 0);

  // Every AL stream bit-identical: same views touched, same update
  // labels, same covered sets, same delta rows in the same order.
  auto als_a = CollectAls(**run_a);
  auto als_b = CollectAls(**run_b);
  std::vector<std::string> views_a, views_b;
  for (const auto& [view, als] : als_a) views_a.push_back(view);
  for (const auto& [view, als] : als_b) views_b.push_back(view);
  ASSERT_EQ(views_a, views_b);
  for (const auto& [view, stream_a] : als_a) {
    const auto& stream_b = als_b.at(view);
    ASSERT_EQ(stream_a.size(), stream_b.size()) << view;
    for (size_t i = 0; i < stream_a.size(); ++i) {
      const ActionList& a = stream_a[i];
      const ActionList& b = stream_b[i];
      EXPECT_EQ(a.update, b.update) << view << " AL " << i;
      EXPECT_EQ(a.first_update, b.first_update) << view << " AL " << i;
      EXPECT_EQ(a.covered, b.covered) << view << " AL " << i;
      EXPECT_EQ(a.replace_all, b.replace_all) << view << " AL " << i;
      EXPECT_EQ(a.delta.rows, b.delta.rows)
          << view << " AL " << i << " (update " << a.update << ")";
    }
  }

  // Final warehouse state identical, and both runs MVC-complete.
  for (const BoundView& view : (*run_a)->bound_views()) {
    auto table_a = (*run_a)->warehouse().MaterializeView(view.name());
    auto table_b = (*run_b)->warehouse().MaterializeView(view.name());
    ASSERT_TRUE(table_a.ok() && table_b.ok());
    EXPECT_EQ(table_a->SortedRows(), table_b->SortedRows())
        << view.name();
  }
  ConsistencyChecker checker_a = (*run_a)->MakeChecker();
  EXPECT_TRUE(checker_a.CheckComplete((*run_a)->recorder()).ok())
      << checker_a.CheckComplete((*run_a)->recorder());
  ConsistencyChecker checker_b = (*run_b)->MakeChecker();
  EXPECT_TRUE(checker_b.CheckComplete((*run_b)->recorder()).ok())
      << checker_b.CheckComplete((*run_b)->recorder());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaintEquivalenceTest,
    ::testing::Values(
        EquivCase{"Sim_Seed1", 1, false, 1, 1, true},
        EquivCase{"Sim_Seed2_TwoMerges", 2, false, 2, 1, true},
        EquivCase{"Sim_Seed3_MultiUpdateTxns", 3, false, 1, 3, true},
        EquivCase{"Sim_Seed4_NoPruning", 4, false, 1, 2, false},
        EquivCase{"Sim_Seed5_TwoMergesMulti", 5, false, 2, 2, true},
        EquivCase{"Thread_Seed6", 6, true, 1, 1, true},
        EquivCase{"Thread_Seed7_TwoMerges", 7, true, 2, 2, true}),
    EquivCaseName);

// ---------------------------------------------------------------------
// Negative: the stale-auxiliary mutation must be caught.
// ---------------------------------------------------------------------

TEST(MaintMutationTest, StaleAuxiliaryBreaksCompleteness) {
  EquivCase c{"mutation", 11, false, 1, 1, true};
  // Not every skipped base change is observable — a dropped row that
  // never joins leaves every later delta intact. Sweep the first few
  // skip positions; the oracle must catch at least one of them.
  bool caught = false;
  for (int64_t skip = 1; skip <= 10 && !caught; ++skip) {
    SystemConfig config = BaseScenario(c, /*insert_only=*/true);
    config.maint.self_maintain = true;
    config.maint.mutation_skip_aux_apply = skip;
    auto system = WarehouseSystem::Build(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    (*system)->Run();
    ConsistencyChecker checker = (*system)->MakeChecker();
    caught = !checker.CheckComplete((*system)->recorder()).ok();
  }
  EXPECT_TRUE(caught)
      << "no stale-auxiliary mutation was noticed by the oracle";
}

TEST(MaintConfigTest, RejectsIncompatibleManagers) {
  EquivCase c{"reject", 12, false, 1, 1, true};
  SystemConfig config = BaseScenario(c);
  config.maint.self_maintain = true;
  config.manager_kinds[config.views[0].name] = ManagerKind::kStrong;
  auto system = WarehouseSystem::Build(std::move(config));
  EXPECT_FALSE(system.ok());
}

}  // namespace
}  // namespace mvc
