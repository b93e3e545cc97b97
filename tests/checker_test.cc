// Tests for the consistency oracle itself: it must accept legal runs
// and, crucially, detect each class of violation (a checker that never
// fires proves nothing).

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "query/evaluator.h"
#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

// Harness around the Table 1 scenario: base R={[1,2]}, T={[3,4]}, S
// empty; views V1 = R|><|S and V2 = S|><|T. One update inserts [2,3]
// into S.
class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schemas_ = {{"R", Schema::AllInt64({"A", "B"})},
                {"S", Schema::AllInt64({"B", "C"})},
                {"T", Schema::AllInt64({"C", "D"})}};
    ASSERT_TRUE(base_.CreateTable("R", schemas_["R"]).ok());
    ASSERT_TRUE(base_.CreateTable("S", schemas_["S"]).ok());
    ASSERT_TRUE(base_.CreateTable("T", schemas_["T"]).ok());
    ASSERT_TRUE((*base_.GetTable("R"))->Insert(Tuple{1, 2}).ok());
    ASSERT_TRUE((*base_.GetTable("T"))->Insert(Tuple{3, 4}).ok());
    v1_ = std::move(BoundView::Bind(PaperV1(), schemas_)).value();
    v2_ = std::move(BoundView::Bind(PaperV2(), schemas_)).value();
  }

  ConsistencyChecker MakeChecker() {
    return ConsistencyChecker(std::vector<const BoundView*>{&*v1_, &*v2_},
                              base_);
  }

  /// Records update U_i inserting tuple `t` into S at time i*100.
  void RecordUpdate(ConsistencyRecorder* recorder, UpdateId id, Tuple t) {
    SourceTransaction txn;
    txn.local_seq = id;
    txn.updates = {Update::Insert("src0", "S", std::move(t))};
    recorder->OnUpdateNumbered(id, txn, id * 100);
  }

  /// A replace_all action list installing `contents` as view `view`
  /// (ViewIds index the checker's views: 0 = V1, 1 = V2).
  static ActionList ReplaceAll(ViewId view, const std::vector<UpdateId>& rows,
                               const Table& contents) {
    ActionList al;
    al.view = view;
    al.covered = rows;
    if (!rows.empty()) al.update = rows.back();
    al.replace_all = true;
    contents.Scan([&](const Tuple& t, int64_t c) { al.delta.Add(t, c); });
    return al;
  }

  /// Records a commit whose claimed rows are `rows` and whose action
  /// lists install both views evaluated over `base_state`.
  void RecordCommit(ConsistencyRecorder* recorder, std::vector<UpdateId> rows,
                    const Catalog& base_state, TimeMicros at) {
    WarehouseTransaction txn;
    txn.txn_id = at;
    txn.rows = std::move(rows);
    txn.views = {0, 1};
    ViewId id = 0;
    for (const BoundView* view : {&*v1_, &*v2_}) {
      auto contents =
          ViewEvaluator::Evaluate(*view, CatalogProvider(&base_state));
      MVC_CHECK(contents.ok());
      txn.actions.push_back(ReplaceAll(id++, txn.rows, *contents));
    }
    recorder->OnCommit(0, txn, at);
  }

  std::map<std::string, Schema> schemas_;
  Catalog base_;
  std::optional<BoundView> v1_, v2_;
};

TEST_F(CheckerTest, AcceptsLegalCompleteRun) {
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});
  Catalog after = base_.Clone();
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  RecordCommit(&recorder, {1}, after, 500);

  ConsistencyChecker checker = MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(recorder).ok());
  EXPECT_TRUE(checker.CheckStrong(recorder).ok());
  EXPECT_TRUE(checker.CheckConvergent(recorder).ok());
}

TEST_F(CheckerTest, DetectsMutuallyInconsistentViews) {
  // The Example 1 anomaly: V1 reflects the insert but V2 does not.
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});

  Catalog after = base_.Clone();
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  WarehouseTransaction txn;
  txn.rows = {1};
  txn.views = {0, 1};
  // V1 evaluated after the update, V2 before it (empty): mixed state.
  auto v1_contents = ViewEvaluator::Evaluate(*v1_, CatalogProvider(&after));
  ASSERT_TRUE(v1_contents.ok());
  txn.actions = {ReplaceAll(0, txn.rows, *v1_contents),
                 ReplaceAll(1, txn.rows, Table("V2", v2_->output_schema()))};
  recorder.OnCommit(0, txn, 500);

  ConsistencyChecker checker = MakeChecker();
  Status st = checker.CheckStrong(recorder);
  EXPECT_TRUE(st.IsConsistencyViolation()) << st;
  EXPECT_NE(st.message().find("V2"), std::string::npos);
}

TEST_F(CheckerTest, DetectsMissingUpdateAtEnd) {
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});
  // No commit at all.
  ConsistencyChecker checker = MakeChecker();
  Status st = checker.CheckStrong(recorder);
  EXPECT_TRUE(st.IsConsistencyViolation());
  EXPECT_NE(st.message().find("never reflected"), std::string::npos);
  EXPECT_TRUE(checker.CheckConvergent(recorder).IsConsistencyViolation());
}

TEST_F(CheckerTest, DetectsDependentReordering) {
  // U1 and U2 both touch S (shared views); a commit claiming U2 without
  // U1 is illegal even if contents were made to match.
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});
  RecordUpdate(&recorder, 2, Tuple{2, 9});

  Catalog after2 = base_.Clone();
  ASSERT_TRUE((*after2.GetTable("S"))->Insert(Tuple{2, 9}).ok());
  RecordCommit(&recorder, {2}, after2, 400);

  Catalog after_both = after2.Clone();
  ASSERT_TRUE((*after_both.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  RecordCommit(&recorder, {1}, after_both, 500);

  ConsistencyChecker checker = MakeChecker();
  Status st = checker.CheckStrong(recorder);
  EXPECT_TRUE(st.IsConsistencyViolation());
  EXPECT_NE(st.message().find("before dependent"), std::string::npos);
}

TEST_F(CheckerTest, CompleteRequiresSingleSteps) {
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});
  RecordUpdate(&recorder, 2, Tuple{2, 9});
  Catalog after = base_.Clone();
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 9}).ok());
  RecordCommit(&recorder, {1, 2}, after, 500);

  ConsistencyChecker checker = MakeChecker();
  // Strong: fine (one batched step). Complete: violated.
  EXPECT_TRUE(checker.CheckStrong(recorder).ok());
  Status st = checker.CheckComplete(recorder);
  EXPECT_TRUE(st.IsConsistencyViolation());
  EXPECT_NE(st.message().find("advances by 2"), std::string::npos);
}

TEST_F(CheckerTest, ConvergentAcceptsWrongIntermediateStates) {
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});

  // Intermediate commit installing garbage (V1 updated, V2 not).
  WarehouseTransaction bogus;
  bogus.rows = {};
  Table junk("V1", v1_->output_schema());
  ASSERT_TRUE(junk.Insert(Tuple{9, 9, 9}).ok());
  bogus.actions = {
      ReplaceAll(0, bogus.rows, junk),
      ReplaceAll(1, bogus.rows, Table("V2", v2_->output_schema()))};
  recorder.OnCommit(0, bogus, 300);

  Catalog after = base_.Clone();
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  RecordCommit(&recorder, {1}, after, 500);

  ConsistencyChecker checker = MakeChecker();
  EXPECT_TRUE(checker.CheckConvergent(recorder).ok());
  EXPECT_FALSE(checker.CheckStrong(recorder).ok());
}

TEST_F(CheckerTest, DetectsUnknownClaimedUpdate) {
  ConsistencyRecorder recorder;
  Catalog after = base_.Clone();
  RecordCommit(&recorder, {42}, after, 500);
  ConsistencyChecker checker = MakeChecker();
  Status st = checker.CheckStrong(recorder);
  EXPECT_TRUE(st.IsConsistencyViolation());
  EXPECT_NE(st.message().find("unknown update"), std::string::npos);
}

TEST_F(CheckerTest, SnapshotsRequired) {
  ConsistencyRecorder recorder(/*content_checks=*/false);
  ConsistencyChecker checker = MakeChecker();
  EXPECT_TRUE(checker.CheckStrong(recorder).IsFailedPrecondition());
  EXPECT_TRUE(checker.CheckConvergent(recorder).IsFailedPrecondition());
}

TEST_F(CheckerTest, FreshnessStatsComputeLags) {
  ConsistencyRecorder recorder;
  RecordUpdate(&recorder, 1, Tuple{2, 3});   // numbered at 100
  RecordUpdate(&recorder, 2, Tuple{2, 9});   // numbered at 200
  Catalog after = base_.Clone();
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 3}).ok());
  RecordCommit(&recorder, {1}, after, 400);  // lag 300
  ASSERT_TRUE((*after.GetTable("S"))->Insert(Tuple{2, 9}).ok());
  RecordCommit(&recorder, {2}, after, 900);  // lag 700

  FreshnessStats stats = recorder.ComputeFreshness();
  EXPECT_EQ(stats.updates_reflected, 2);
  EXPECT_DOUBLE_EQ(stats.mean_lag_micros, 500.0);
  EXPECT_EQ(stats.max_lag_micros, 700);
}

TEST(CheckerStoreTest, DetectsStoreThatDisagreesWithActionLists) {
  // Example 3 commits three times. The forged recorder drops the last
  // commit and the updates it introduced: what remains is a legal,
  // complete run of a shorter schedule, so every per-commit clause
  // passes — but its replayed end state is not what the warehouse store
  // holds, and the final-store clause must say so.
  auto system = WarehouseSystem::Build(Example3Scenario());
  ASSERT_TRUE(system.ok());
  (*system)->Run();
  const ConsistencyRecorder& real = (*system)->recorder();
  ConsistencyChecker checker = (*system)->MakeChecker();
  ASSERT_TRUE(checker.CheckComplete(real).ok()) << checker.CheckComplete(real);
  ASSERT_GE(real.commits().size(), 2u);

  const RecordedCommit& last = real.commits().back();
  ConsistencyRecorder forged;
  for (const RecordedUpdate& u : real.updates()) {
    if (std::find(last.txn.rows.begin(), last.txn.rows.end(), u.id) ==
        last.txn.rows.end()) {
      forged.OnUpdateNumbered(u.id, u.txn, u.numbered_at);
    }
  }
  for (size_t j = 0; j + 1 < real.commits().size(); ++j) {
    const RecordedCommit& c = real.commits()[j];
    forged.OnCommit(c.submitter, c.txn, c.committed_at);
  }
  ASSERT_TRUE(checker.CheckPrefix(forged, /*require_single_steps=*/true).ok())
      << checker.CheckPrefix(forged, true);

  Status st = checker.CheckStrong(forged);
  EXPECT_TRUE(st.IsConsistencyViolation()) << st;
  EXPECT_NE(st.message().find("differs from the replayed action lists"),
            std::string::npos)
      << st;
  EXPECT_TRUE(checker.CheckConvergent(forged).IsConsistencyViolation());
}

}  // namespace
}  // namespace mvc
