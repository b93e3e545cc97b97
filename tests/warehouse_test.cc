// Tests for the warehouse process: atomic application, replace-all
// actions, commit dependencies, and the Section 4.3 reordering anomaly.

#include <gtest/gtest.h>

#include "net/sim_runtime.h"
#include "storage/id_registry.h"
#include "warehouse/warehouse.h"

namespace mvc {
namespace {

constexpr ViewId kV1 = 0, kV2 = 1;

/// Shared name table: V1, V2, V in mint order.
const IdRegistry* TestRegistry() {
  static const IdRegistry* reg = [] {
    auto* r = new IdRegistry();
    r->InternViews({"V1", "V2", "V"});
    return r;
  }();
  return reg;
}

ActionList Al(ViewId view, Tuple t, int64_t count) {
  ActionList al;
  al.view = view;
  al.delta.target = TestRegistry()->ViewName(view);
  al.delta.Add(std::move(t), count);
  return al;
}

/// Submits prepared transactions with per-transaction delays.
class Submitter : public Process {
 public:
  Submitter(std::string name, ProcessId warehouse)
      : Process(std::move(name)), warehouse_(warehouse) {}

  void OnStart() override {
    TimeMicros at = 0;
    for (WarehouseTransaction& txn : to_send) {
      auto msg = std::make_unique<WarehouseTxnMsg>();
      msg->txn = std::move(txn);
      SendAfter(warehouse_, std::move(msg), at += 10);
    }
  }
  void OnMessage(ProcessId, MessagePtr msg) override {
    ASSERT_EQ(msg->kind, Message::Kind::kTxnCommitted);
    acks.push_back(static_cast<TxnCommittedMsg*>(msg.get())->txn_id);
  }

  ProcessId warehouse_;
  std::vector<WarehouseTransaction> to_send;
  std::vector<int64_t> acks;
};

class WarehouseTest : public ::testing::Test {
 protected:
  void Wire(WarehouseOptions options) {
    warehouse_ = std::make_unique<WarehouseProcess>("warehouse", options);
    warehouse_->SetRegistry(TestRegistry());
    ASSERT_TRUE(warehouse_->CreateView("V1", Schema::AllInt64({"A"})).ok());
    ASSERT_TRUE(warehouse_->CreateView("V2", Schema::AllInt64({"A"})).ok());
    ProcessId wpid = runtime_.Register(warehouse_.get());
    submitter_ = std::make_unique<Submitter>("merge", wpid);
    runtime_.Register(submitter_.get());
  }

  SimRuntime runtime_{1};
  std::unique_ptr<WarehouseProcess> warehouse_;
  std::unique_ptr<Submitter> submitter_;
};

TEST_F(WarehouseTest, AppliesAllActionListsAtomically) {
  Wire({});
  WarehouseTransaction txn;
  txn.txn_id = 1;
  txn.views = {kV1, kV2};
  txn.actions = {Al(kV1, Tuple{1}, 1), Al(kV2, Tuple{2}, 1)};
  submitter_->to_send = {txn};
  runtime_.Run();

  EXPECT_EQ(warehouse_->MaterializeView("V1")->CountOf(Tuple{1}), 1);
  EXPECT_EQ(warehouse_->MaterializeView("V2")->CountOf(Tuple{2}), 1);
  EXPECT_EQ(warehouse_->transactions_committed(), 1);
  EXPECT_EQ(warehouse_->actions_applied(), 2);
  EXPECT_EQ(submitter_->acks, (std::vector<int64_t>{1}));
}

TEST_F(WarehouseTest, ReplaceAllClearsThenInstalls) {
  Wire({});
  WarehouseTransaction seed;
  seed.txn_id = 1;
  seed.actions = {Al(kV1, Tuple{1}, 2)};
  WarehouseTransaction replace;
  replace.txn_id = 2;
  ActionList al = Al(kV1, Tuple{9}, 1);
  al.replace_all = true;
  replace.actions = {al};
  submitter_->to_send = {seed, replace};
  runtime_.Run();

  Result<Table> v1 = warehouse_->MaterializeView("V1");
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1->CountOf(Tuple{1}), 0);
  EXPECT_EQ(v1->CountOf(Tuple{9}), 1);
}

TEST_F(WarehouseTest, InitializeViewInstallsContents) {
  Wire({});
  Table initial("x", Schema::AllInt64({"A"}));
  ASSERT_TRUE(initial.Insert(Tuple{5}, 3).ok());
  ASSERT_TRUE(warehouse_->InitializeView("V1", initial).ok());
  runtime_.Run();  // publishes the initialized state as commit 0
  EXPECT_EQ(warehouse_->MaterializeView("V1")->CountOf(Tuple{5}), 3);
}

TEST_F(WarehouseTest, CommitObserverSeesSnapshots) {
  Wire({});
  std::vector<int64_t> seen;
  warehouse_->SetCommitObserver(
      [&](ProcessId, const WarehouseTransaction& t, TimeMicros) {
        seen.push_back(t.txn_id);
        EXPECT_EQ(warehouse_->transactions_committed(),
                  static_cast<int64_t>(seen.size()));
      });
  WarehouseTransaction txn;
  txn.txn_id = 7;
  txn.actions = {Al(kV1, Tuple{1}, 1)};
  submitter_->to_send = {txn};
  runtime_.Run();
  EXPECT_EQ(seen, (std::vector<int64_t>{7}));
}

TEST_F(WarehouseTest, JitterReordersIndependentTransactions) {
  // With jitter and no dependencies, commit order can differ from
  // submission order. Find a seed where it actually does.
  bool reordered = false;
  for (uint64_t seed = 1; seed < 30 && !reordered; ++seed) {
    SimRuntime runtime(seed);
    WarehouseOptions options;
    options.apply_delay = 10;
    options.apply_jitter = 10000;
    options.seed = seed;
    WarehouseProcess warehouse("warehouse", options);
    warehouse.SetRegistry(TestRegistry());
    ASSERT_TRUE(warehouse.CreateView("V1", Schema::AllInt64({"A"})).ok());
    ASSERT_TRUE(warehouse.CreateView("V2", Schema::AllInt64({"A"})).ok());
    ProcessId wpid = runtime.Register(&warehouse);
    Submitter submitter("merge", wpid);
    runtime.Register(&submitter);
    WarehouseTransaction t1;
    t1.txn_id = 1;
    t1.views = {kV1};
    t1.actions = {Al(kV1, Tuple{1}, 1)};
    WarehouseTransaction t2;
    t2.txn_id = 2;
    t2.views = {kV2};
    t2.actions = {Al(kV2, Tuple{2}, 1)};
    submitter.to_send = {t1, t2};
    runtime.Run();
    ASSERT_EQ(submitter.acks.size(), 2u);
    if (submitter.acks == std::vector<int64_t>{2, 1}) reordered = true;
  }
  EXPECT_TRUE(reordered) << "expected some seed to reorder commits";
}

TEST_F(WarehouseTest, DependenciesForceCommitOrderDespiteJitter) {
  // Same jittery warehouse, but t2 depends on t1: commit order must be
  // 1 then 2 for every seed.
  for (uint64_t seed = 1; seed < 20; ++seed) {
    SimRuntime runtime(seed);
    WarehouseOptions options;
    options.apply_delay = 10;
    options.apply_jitter = 10000;
    options.honor_dependencies = true;
    options.seed = seed;
    WarehouseProcess warehouse("warehouse", options);
    warehouse.SetRegistry(TestRegistry());
    ASSERT_TRUE(warehouse.CreateView("V1", Schema::AllInt64({"A"})).ok());
    ASSERT_TRUE(warehouse.CreateView("V2", Schema::AllInt64({"A"})).ok());
    ProcessId wpid = runtime.Register(&warehouse);
    Submitter submitter("merge", wpid);
    runtime.Register(&submitter);
    WarehouseTransaction t1;
    t1.txn_id = 1;
    t1.views = {kV1};
    t1.actions = {Al(kV1, Tuple{1}, 1)};
    WarehouseTransaction t2;
    t2.txn_id = 2;
    t2.views = {kV1};
    t2.depends_on = {1};
    t2.actions = {Al(kV1, Tuple{2}, 1)};
    submitter.to_send = {t1, t2};
    runtime.Run();
    EXPECT_EQ(submitter.acks, (std::vector<int64_t>{1, 2}))
        << "seed " << seed;
  }
}

TEST_F(WarehouseTest, DependentDeleteAfterInsertNeedsOrdering) {
  // t1 inserts a tuple, t2 deletes it. Without dependency enforcement
  // and with reordering, t2 would fire first and crash the warehouse;
  // with enforcement every seed is safe.
  SimRuntime runtime(5);
  WarehouseOptions options;
  options.apply_delay = 10;
  options.apply_jitter = 10000;
  options.honor_dependencies = true;
  options.seed = 5;
  WarehouseProcess warehouse("warehouse", options);
  warehouse.SetRegistry(TestRegistry());
  ASSERT_TRUE(warehouse.CreateView("V1", Schema::AllInt64({"A"})).ok());
  ProcessId wpid = runtime.Register(&warehouse);
  Submitter submitter("merge", wpid);
  runtime.Register(&submitter);
  WarehouseTransaction t1;
  t1.txn_id = 1;
  t1.views = {kV1};
  t1.actions = {Al(kV1, Tuple{1}, 1)};
  WarehouseTransaction t2;
  t2.txn_id = 2;
  t2.views = {kV1};
  t2.depends_on = {1};
  t2.actions = {Al(kV1, Tuple{1}, -1)};
  submitter.to_send = {t1, t2};
  runtime.Run();
  EXPECT_TRUE(warehouse.MaterializeView("V1")->empty());
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

TEST(WarehouseSetupTest, DuplicateViewRejected) {
  WarehouseProcess warehouse("warehouse");
  ASSERT_TRUE(warehouse.CreateView("V", Schema::AllInt64({"A"})).ok());
  EXPECT_TRUE(
      warehouse.CreateView("V", Schema::AllInt64({"A"})).IsAlreadyExists());
}

TEST(WarehouseSetupTest, InitializeUnknownViewFails) {
  WarehouseProcess warehouse("warehouse");
  Table t("x", Schema::AllInt64({"A"}));
  EXPECT_TRUE(warehouse.InitializeView("nope", t).IsNotFound());
}

TEST(WarehouseSetupTest, HistoryDisabledByDefault) {
  // With max_retained_versions = 0 nothing is retained; a current-state
  // read still works.
  SimRuntime runtime(1);
  WarehouseProcess warehouse("warehouse");
  warehouse.SetRegistry(TestRegistry());
  ASSERT_TRUE(warehouse.CreateView("V", Schema::AllInt64({"A"})).ok());
  ProcessId wpid = runtime.Register(&warehouse);

  class Probe : public Process {
   public:
    Probe(std::string name, ProcessId warehouse)
        : Process(std::move(name)), warehouse_(warehouse) {}
    void OnStart() override {
      auto read = std::make_unique<ReadViewsMsg>();
      Send(warehouse_, std::move(read));
    }
    void OnMessage(ProcessId, MessagePtr msg) override {
      got = msg->kind == Message::Kind::kViewsSnapshot;
    }
    ProcessId warehouse_;
    bool got = false;
  };
  Probe probe("probe", wpid);
  runtime.Register(&probe);
  runtime.Run();
  EXPECT_TRUE(probe.got);
}

}  // namespace
}  // namespace mvc

// --- Snapshot isolation under concurrent commits and pooled readers ---
//
// Randomized interleavings of jittered commits with a pool of Poisson
// readers, on both runtimes. The invariant is exact snapshot isolation:
// every observation must equal the catalog state at precisely its
// as_of_commit for *all* views at once — a torn multi-view read (one
// view from commit k, another from k+1) fails the comparison.

#include "net/thread_runtime.h"
#include "warehouse/reader.h"

namespace mvc {
namespace {

void RunSnapshotIsolationRound(Runtime* runtime, uint64_t seed) {
  Rng rng(seed * 977 + 1);
  WarehouseOptions options;
  options.apply_delay = 10;
  options.apply_jitter = 3000;  // commits finish out of submission order
  options.honor_dependencies = true;
  options.seed = seed;
  options.max_retained_versions = 64;
  WarehouseProcess warehouse("warehouse", options);
  warehouse.SetRegistry(TestRegistry());
  const Schema schema = Schema::AllInt64({"A"});
  ASSERT_TRUE(warehouse.CreateView("V1", schema).ok());
  ASSERT_TRUE(warehouse.CreateView("V2", schema).ok());

  // Ground truth per commit count: flat tables kept by the test itself,
  // updated from each observed transaction's action lists on the
  // warehouse actor by the commit observer. Commit 0 is the initial
  // (empty) state.
  std::map<ViewId, Table> truth_tables;
  truth_tables.emplace(kV1, Table("V1", schema));
  truth_tables.emplace(kV2, Table("V2", schema));
  std::map<int64_t, std::pair<std::string, std::string>> expected;
  expected[0] = {truth_tables.at(kV1).ToString(),
                 truth_tables.at(kV2).ToString()};
  warehouse.SetCommitObserver(
      [&](ProcessId, const WarehouseTransaction& txn, TimeMicros) {
        for (const ActionList& al : txn.actions) {
          Table& table = truth_tables.at(al.view);
          if (al.replace_all) table.Clear();
          EXPECT_TRUE(al.delta.ApplyTo(&table).ok());
        }
        expected[warehouse.transactions_committed()] = {
            truth_tables.at(kV1).ToString(),
            truth_tables.at(kV2).ToString()};
      });

  ProcessId wpid = runtime->Register(&warehouse);
  Submitter submitter("merge", wpid);
  runtime->Register(&submitter);

  // Random multi-view transactions: txn i inserts into both views in
  // one atomic unit; some also delete one copy a predecessor inserted
  // (dependency-ordered so the delete is always valid).
  constexpr int64_t kTxns = 24;
  std::set<int64_t> deleted;
  for (int64_t i = 1; i <= kTxns; ++i) {
    WarehouseTransaction txn;
    txn.txn_id = i;
    txn.views = {kV1, kV2};
    txn.actions = {Al(kV1, Tuple{i}, 2), Al(kV2, Tuple{100 + i}, 1)};
    if (i > 2 && rng.Bernoulli(0.4)) {
      const int64_t victim = rng.UniformInt(1, i - 1);
      // Each txn inserts 2 copies; one delete per victim stays valid.
      if (deleted.insert(victim).second) {
        txn.actions.push_back(Al(kV1, Tuple{victim}, -1));
        txn.depends_on = {victim};
      }
    }
    submitter.to_send.push_back(std::move(txn));
  }

  // Reader pool: independent Poisson schedules overlapping the commits.
  std::vector<std::unique_ptr<WarehouseReader>> readers;
  for (int r = 0; r < 3; ++r) {
    readers.push_back(std::make_unique<WarehouseReader>(
        "reader-" + std::to_string(r), std::vector<ViewId>{kV1, kV2},
        PoissonReadSchedule(rng.engine()(), 16, 60.0)));
    runtime->Register(readers.back().get());
    readers.back()->SetWarehouse(wpid);
  }

  runtime->Run();

  ASSERT_EQ(warehouse.transactions_committed(), kTxns);
  size_t checked = 0;
  for (const auto& reader : readers) {
    for (const auto& obs : reader->observations()) {
      ASSERT_TRUE(obs.ok()) << obs.error;
      ASSERT_EQ(obs.snapshots.size(), 2u);
      auto truth = expected.find(obs.as_of_commit);
      ASSERT_NE(truth, expected.end())
          << "observation cites unknown commit " << obs.as_of_commit;
      EXPECT_EQ(obs.snapshots[0].ToString(), truth->second.first)
          << "seed " << seed << ": V1 torn at commit " << obs.as_of_commit;
      EXPECT_EQ(obs.snapshots[1].ToString(), truth->second.second)
          << "seed " << seed << ": V2 torn at commit " << obs.as_of_commit;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * 16u);
  // A delete landing in a view while another reader holds an older
  // version means several versions were genuinely live at some point;
  // at quiescence only the retained window remains.
  EXPECT_GE(warehouse.store().versions_live(), 1u);
}

TEST(SnapshotIsolationTest, PooledReadsNeverTearOnSimRuntime) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SimRuntime runtime(seed);
    RunSnapshotIsolationRound(&runtime, seed);
  }
}

TEST(SnapshotIsolationTest, PooledReadsNeverTearOnThreadRuntime) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ThreadRuntime runtime(seed, LatencyModel::Uniform(0, 200));
    RunSnapshotIsolationRound(&runtime, seed);
  }
}

}  // namespace
}  // namespace mvc
