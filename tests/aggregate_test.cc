// Tests for aggregate views: spec validation, evaluation, incremental
// folding, the aggregate view manager, and system-level MVC with an
// aggregate view in the mix.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/aggregate.h"
#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

std::map<std::string, Schema> PaperSchemas() {
  return {{"R", Schema::AllInt64({"A", "B"})},
          {"S", Schema::AllInt64({"B", "C"})},
          {"T", Schema::AllInt64({"C", "D"})},
          {"Q", Schema::AllInt64({"D", "E"})}};
}

AggregateSpec CountAndSumByB() {
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {
      AggregateColumn{AggregateFn::kCount, "", "n"},
      AggregateColumn{AggregateFn::kSum, "C", "total_c"}};
  return spec;
}

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& [name, schema] : PaperSchemas()) {
      ASSERT_TRUE(catalog_.CreateTable(name, schema).ok());
    }
    // S as the SPJ core (single relation keeps the math obvious).
    ViewDefinition def;
    def.name = "BySum";
    def.relations = {"S"};
    core_ = std::move(BoundView::Bind(def, PaperSchemas())).value();
  }

  Status InsertS(int64_t b, int64_t c, int64_t count = 1) {
    return (*catalog_.GetTable("S"))->Insert(Tuple{b, c}, count);
  }

  Catalog catalog_;
  std::optional<BoundView> core_;
};

TEST_F(AggregateTest, OutputSchemaComposition) {
  auto schema = CountAndSumByB().OutputSchema(core_->output_schema());
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(*schema, Schema::AllInt64({"B", "n", "total_c"}));
}

TEST_F(AggregateTest, OutputSchemaRejectsUnknownColumns) {
  AggregateSpec spec;
  spec.group_by = {"ZZ"};
  EXPECT_FALSE(spec.OutputSchema(core_->output_schema()).ok());
  AggregateSpec spec2;
  spec2.group_by = {"B"};
  spec2.aggregates = {AggregateColumn{AggregateFn::kSum, "ZZ", "s"}};
  EXPECT_FALSE(spec2.OutputSchema(core_->output_schema()).ok());
}

TEST_F(AggregateTest, EvaluateGroupsAndSums) {
  ASSERT_TRUE(InsertS(1, 10).ok());
  ASSERT_TRUE(InsertS(1, 5, 2).ok());  // multiplicity 2
  ASSERT_TRUE(InsertS(2, 7).ok());
  auto result = EvaluateAggregate(*core_, CountAndSumByB(),
                                  CatalogProvider(&catalog_), "BySum");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 2);
  EXPECT_EQ(result->CountOf(Tuple{1, 3, 20}), 1);  // 10 + 5 + 5
  EXPECT_EQ(result->CountOf(Tuple{2, 1, 7}), 1);
}

TEST_F(AggregateTest, EmptyCoreYieldsEmptyAggregate) {
  auto result = EvaluateAggregate(*core_, CountAndSumByB(),
                                  CatalogProvider(&catalog_), "BySum");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(AggregateTest, FoldInsertCreatesAndUpdatesGroups) {
  auto state = AggregateState::Build(*core_, CountAndSumByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());

  TableDelta d1;
  d1.target = "S";
  d1.Add(Tuple{1, 10}, 1);
  auto out1 = state->Fold(d1, "BySum");
  ASSERT_TRUE(out1.ok());
  // New group: only the +new row.
  ASSERT_EQ(out1->rows.size(), 1u);
  EXPECT_EQ(out1->rows[0].tuple, (Tuple{1, 1, 10}));
  EXPECT_EQ(out1->rows[0].count, 1);

  TableDelta d2;
  d2.target = "S";
  d2.Add(Tuple{1, 5}, 1);
  auto out2 = state->Fold(d2, "BySum");
  ASSERT_TRUE(out2.ok());
  // Existing group: -old +new.
  ASSERT_EQ(out2->rows.size(), 2u);
  EXPECT_EQ(out2->rows[0].tuple, (Tuple{1, 1, 10}));
  EXPECT_EQ(out2->rows[0].count, -1);
  EXPECT_EQ(out2->rows[1].tuple, (Tuple{1, 2, 15}));
  EXPECT_EQ(out2->rows[1].count, 1);
}

TEST_F(AggregateTest, FoldDeleteRemovesEmptiedGroup) {
  ASSERT_TRUE(InsertS(1, 10).ok());
  auto state = AggregateState::Build(*core_, CountAndSumByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());
  TableDelta d;
  d.target = "S";
  d.Add(Tuple{1, 10}, -1);
  auto out = state->Fold(d, "BySum");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0].count, -1);
  EXPECT_TRUE(state->Materialize("x").empty());
}

TEST_F(AggregateTest, FoldMultipleRowsSameGroupProducesOnePair) {
  ASSERT_TRUE(InsertS(1, 10).ok());
  auto state = AggregateState::Build(*core_, CountAndSumByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());
  TableDelta d;
  d.target = "S";
  d.Add(Tuple{1, 5}, 1);
  d.Add(Tuple{1, 3}, 1);
  d.Add(Tuple{1, 10}, -1);
  auto out = state->Fold(d, "BySum");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 2u);
  EXPECT_EQ(out->rows[0].tuple, (Tuple{1, 1, 10}));
  EXPECT_EQ(out->rows[0].count, -1);
  EXPECT_EQ(out->rows[1].tuple, (Tuple{1, 2, 8}));
  EXPECT_EQ(out->rows[1].count, 1);
}

TEST_F(AggregateTest, SumOverNegativeValues) {
  ASSERT_TRUE(InsertS(1, -4).ok());
  ASSERT_TRUE(InsertS(1, 3).ok());
  auto result = EvaluateAggregate(*core_, CountAndSumByB(),
                                  CatalogProvider(&catalog_), "BySum");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CountOf(Tuple{1, 2, -1}), 1);
}

// Property: incremental folding equals recomputation under random
// update streams.
class AggregateFoldProperty : public AggregateTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(AggregateFoldProperty, IncrementalEqualsRecomputation) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto state = AggregateState::Build(*core_, CountAndSumByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());
  Table materialized = state->Materialize("BySum");
  std::vector<Tuple> live;

  for (int step = 0; step < 80; ++step) {
    TableDelta base;
    base.target = "S";
    if (rng.Bernoulli(0.35) && !live.empty()) {
      size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      base.Add(live[idx], -1);
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    } else {
      Tuple t{rng.UniformInt(0, 3), rng.UniformInt(-5, 20)};
      base.Add(t, 1);
      live.push_back(t);
    }
    // The core view is the identity over S, so the base delta IS the
    // core-output delta.
    auto agg_delta = state->Fold(base, "BySum");
    ASSERT_TRUE(agg_delta.ok());
    ASSERT_TRUE(agg_delta->ApplyTo(&materialized).ok());
    ASSERT_TRUE(base.ApplyTo(*catalog_.GetTable("S")).ok());

    auto full = EvaluateAggregate(*core_, CountAndSumByB(),
                                  CatalogProvider(&catalog_), "BySum");
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(materialized.ContentsEqual(*full))
        << "step " << step << "\nIncremental:\n"
        << materialized.ToString() << "Full:\n"
        << full->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateFoldProperty,
                         ::testing::Range(1, 9));

// System-level: an aggregate over a join, coordinated with a plain view.
TEST(AggregateSystemTest, AggregateViewKeepsMvcWithJoinCore) {
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}, Tuple{5, 2}};
  config.initial_data["T"] = {Tuple{3, 4}};

  // V1 = R|><|S (plain); VAgg = COUNT/SUM over the same join, grouped
  // by B. Both are affected by every S update and must move together.
  ViewDefinition agg_core = PaperV1();
  agg_core.name = "VAgg";
  config.views = {PaperV1(), agg_core};
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {AggregateColumn{AggregateFn::kCount, "", "n"},
                     AggregateColumn{AggregateFn::kSum, "C", "sum_c"}};
  config.aggregates["VAgg"] = spec;
  config.latency = LatencyModel::Uniform(300, 2000);
  config.vm_options.delta_cost = 700;
  config.seed = 5;

  TimeMicros at = 1000;
  for (const Update& u : {Update::Insert("src0", "S", Tuple{2, 3}),
                          Update::Insert("src0", "S", Tuple{2, 9}),
                          Update::Delete("src0", "S", Tuple{2, 3}),
                          Update::Insert("src0", "S", Tuple{9, 9})}) {
    Injection inj;
    inj.at = at;
    inj.source = "src0";
    inj.updates = {u};
    config.workload.push_back(inj);
    at += 1200;
  }

  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  (*system)->Run();

  // Final aggregate contents: S = {[2,9]}; join with R gives rows for
  // A=1 and A=5, both B=2 -> group 2 has n=2, sum_c=18.
  Result<Table> vagg = (*system)->warehouse().MaterializeView("VAgg");
  ASSERT_TRUE(vagg.ok()) << vagg.status();
  EXPECT_EQ(vagg->NumRows(), 1);
  EXPECT_EQ(vagg->CountOf(Tuple{2, 2, 18}), 1);

  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong((*system)->recorder()).ok())
      << checker.CheckStrong((*system)->recorder());
}

TEST(AggregateSystemTest, MergeTreatsAggregateManagerAsStrong) {
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}};
  ViewDefinition agg_core = PaperV1();
  agg_core.name = "VAgg";
  config.views = {agg_core};
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {AggregateColumn{AggregateFn::kCount, "", "n"}};
  config.aggregates["VAgg"] = spec;
  Injection inj;
  inj.at = 500;
  inj.source = "src0";
  inj.updates = {Update::Insert("src0", "S", Tuple{2, 3})};
  config.workload = {inj};

  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->merges()[0]->engine().algorithm(),
            MergeAlgorithm::kPA);
  EXPECT_EQ((*system)->view_managers()[0]->level(),
            ConsistencyLevel::kStrong);
  (*system)->Run();
  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong((*system)->recorder()).ok());
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

AggregateSpec MinMaxByB() {
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {AggregateColumn{AggregateFn::kMin, "C", "min_c"},
                     AggregateColumn{AggregateFn::kMax, "C", "max_c"}};
  return spec;
}

TEST_F(AggregateTest, MinMaxEvaluate) {
  ASSERT_TRUE(InsertS(1, 10).ok());
  ASSERT_TRUE(InsertS(1, 3).ok());
  ASSERT_TRUE(InsertS(1, 7).ok());
  ASSERT_TRUE(InsertS(2, -4).ok());
  auto result = EvaluateAggregate(*core_, MinMaxByB(),
                                  CatalogProvider(&catalog_), "MM");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CountOf(Tuple{1, 3, 10}), 1);
  EXPECT_EQ(result->CountOf(Tuple{2, -4, -4}), 1);
}

TEST_F(AggregateTest, MinMaxSurvivesDeletingTheExtremum) {
  // The reason MIN/MAX need the value multiset: deleting the current
  // minimum must resurface the runner-up exactly.
  ASSERT_TRUE(InsertS(1, 3).ok());
  ASSERT_TRUE(InsertS(1, 7).ok());
  ASSERT_TRUE(InsertS(1, 10).ok());
  auto state = AggregateState::Build(*core_, MinMaxByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());

  TableDelta d;
  d.target = "S";
  d.Add(Tuple{1, 3}, -1);  // delete the min
  auto out = state->Fold(d, "MM");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 2u);
  EXPECT_EQ(out->rows[0].tuple, (Tuple{1, 3, 10}));
  EXPECT_EQ(out->rows[0].count, -1);
  EXPECT_EQ(out->rows[1].tuple, (Tuple{1, 7, 10}));
  EXPECT_EQ(out->rows[1].count, 1);

  TableDelta d2;
  d2.target = "S";
  d2.Add(Tuple{1, 10}, -1);  // delete the max
  auto out2 = state->Fold(d2, "MM");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(state->Materialize("MM").CountOf(Tuple{1, 7, 7}), 1);
}

TEST_F(AggregateTest, MinMaxDuplicateExtremumNeedsBothDeletes) {
  ASSERT_TRUE(InsertS(1, 3, 2).ok());  // two copies of the minimum
  ASSERT_TRUE(InsertS(1, 9).ok());
  auto state = AggregateState::Build(*core_, MinMaxByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());
  TableDelta d;
  d.target = "S";
  d.Add(Tuple{1, 3}, -1);
  ASSERT_TRUE(state->Fold(d, "MM").ok());
  // One copy left: min unchanged.
  EXPECT_EQ(state->Materialize("MM").CountOf(Tuple{1, 3, 9}), 1);
  ASSERT_TRUE(state->Fold(d, "MM").ok());
  EXPECT_EQ(state->Materialize("MM").CountOf(Tuple{1, 9, 9}), 1);
}

class MinMaxFoldProperty : public AggregateTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(MinMaxFoldProperty, IncrementalEqualsRecomputation) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  auto state = AggregateState::Build(*core_, MinMaxByB(),
                                     CatalogProvider(&catalog_));
  ASSERT_TRUE(state.ok());
  Table materialized = state->Materialize("MM");
  std::vector<Tuple> live;
  for (int step = 0; step < 60; ++step) {
    TableDelta base;
    base.target = "S";
    if (rng.Bernoulli(0.4) && !live.empty()) {
      size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      base.Add(live[idx], -1);
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    } else {
      Tuple t{rng.UniformInt(0, 2), rng.UniformInt(-10, 10)};
      base.Add(t, 1);
      live.push_back(t);
    }
    auto delta = state->Fold(base, "MM");
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(delta->ApplyTo(&materialized).ok());
    ASSERT_TRUE(base.ApplyTo(*catalog_.GetTable("S")).ok());
    auto full = EvaluateAggregate(*core_, MinMaxByB(),
                                  CatalogProvider(&catalog_), "MM");
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(materialized.ContentsEqual(*full)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinMaxFoldProperty, ::testing::Range(1, 7));

TEST_F(AggregateTest, MinRejectsNonInt64Input) {
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {AggregateColumn{AggregateFn::kMin, "ZZ", "m"}};
  EXPECT_FALSE(spec.OutputSchema(core_->output_schema()).ok());
}

TEST(AggregateFnTest, Names) {
  EXPECT_STREQ(AggregateFnToString(AggregateFn::kCount), "COUNT");
  EXPECT_STREQ(AggregateFnToString(AggregateFn::kSum), "SUM");
  EXPECT_STREQ(AggregateFnToString(AggregateFn::kMin), "MIN");
  EXPECT_STREQ(AggregateFnToString(AggregateFn::kMax), "MAX");
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

TEST(AggregateOracleTest, DetectsCorruptedAggregateView) {
  // Build a legal run, then corrupt the aggregate view's final snapshot
  // and confirm the checker fires: the oracle evaluates aggregates, not
  // just SPJ views.
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}};
  ViewDefinition agg_core = PaperV1();
  agg_core.name = "VAgg";
  config.views = {agg_core};
  AggregateSpec spec;
  spec.group_by = {"B"};
  spec.aggregates = {AggregateColumn{AggregateFn::kSum, "C", "total"}};
  config.aggregates["VAgg"] = spec;
  Injection inj;
  inj.at = 500;
  inj.source = "src0";
  inj.updates = {Update::Insert("src0", "S", Tuple{2, 3})};
  config.workload = {inj};

  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  (*system)->Run();
  ConsistencyChecker checker = (*system)->MakeChecker();
  ASSERT_TRUE(checker.CheckStrong((*system)->recorder()).ok());

  // Forge a recorder whose only commit carries a wrong SUM: its VAgg
  // action list becomes a replace_all installing the corrupted contents.
  ConsistencyRecorder forged;
  for (const auto& u : (*system)->recorder().updates()) {
    forged.OnUpdateNumbered(u.id, u.txn, u.numbered_at);
  }
  const auto& commits = (*system)->recorder().commits();
  const ViewId vagg_id = *(*system)->registry().FindView("VAgg");
  Status replayed = checker.ReplayWarehouseStates(
      (*system)->recorder(), [&](int64_t k, const Catalog& views) {
        if (k == 0) return Status::OK();
        Table corrupted = (*views.GetTable("VAgg"))->Clone();
        EXPECT_TRUE(corrupted.Delete(Tuple{2, 3}).ok());
        EXPECT_TRUE(corrupted.Insert(Tuple{2, 999}).ok());  // wrong total
        const RecordedCommit& c = commits[static_cast<size_t>(k) - 1];
        WarehouseTransaction txn = c.txn;
        for (ActionList& al : txn.actions) {
          if (al.view != vagg_id) continue;
          al.replace_all = true;
          al.delta.rows.clear();
          corrupted.Scan(
              [&](const Tuple& t, int64_t n) { al.delta.Add(t, n); });
        }
        forged.OnCommit(c.submitter, txn, c.committed_at);
        return Status::OK();
      }).status();
  ASSERT_TRUE(replayed.ok()) << replayed;
  ASSERT_EQ(forged.commits().size(), commits.size());
  Status verdict = checker.CheckStrong(forged);
  EXPECT_TRUE(verdict.IsConsistencyViolation());
  EXPECT_NE(verdict.message().find("VAgg"), std::string::npos);
}

}  // namespace
}  // namespace mvc
