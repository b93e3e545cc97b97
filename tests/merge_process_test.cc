// Tests for the merge process actor: submission policies, dependency
// control, batching, and the bottleneck cost model.

#include <gtest/gtest.h>

#include "merge/merge_process.h"
#include "net/sim_runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/id_registry.h"
#include "warehouse/warehouse.h"

namespace mvc {
namespace {

constexpr ViewId kV1 = 0, kV2 = 1, kV3 = 2;

/// Shared name table: V1, V2, V3 (and V9, never a merge column).
const IdRegistry* TestRegistry() {
  static const IdRegistry* reg = [] {
    auto* r = new IdRegistry();
    r->InternViews({"V1", "V2", "V3", "V9"});
    return r;
  }();
  return reg;
}

/// Feeds a scripted sequence of REL/AL events into a merge process.
class Feeder : public Process {
 public:
  Feeder(std::string name, ProcessId merge)
      : Process(std::move(name)), merge_(merge) {}

  void Rel(UpdateId id, std::vector<ViewId> views) {
    auto msg = std::make_unique<RelSetMsg>();
    msg->update_id = id;
    msg->views = std::move(views);
    script_.push_back(std::move(msg));
  }
  void Al(ViewId view, UpdateId id, Tuple t, int64_t count) {
    auto msg = std::make_unique<ActionListMsg>();
    msg->al.view = view;
    msg->al.update = id;
    msg->al.first_update = id;
    msg->al.covered = {id};
    msg->al.delta.target = TestRegistry()->ViewName(view);
    msg->al.delta.Add(std::move(t), count);
    script_.push_back(std::move(msg));
  }

  void OnStart() override {
    TimeMicros at = 0;
    for (MessagePtr& msg : script_) {
      SendAfter(merge_, std::move(msg), at += 10);
    }
  }
  void OnMessage(ProcessId, MessagePtr) override {}

 private:
  ProcessId merge_;
  std::vector<MessagePtr> script_;
};

struct Rig {
  explicit Rig(MergeOptions merge_options, WarehouseOptions wh_options = {},
               uint64_t seed = 1)
      : runtime(seed),
        warehouse("warehouse", wh_options),
        merge("merge-0", {kV1, kV2, kV3}, TestRegistry(),
              merge_options) {
    MVC_CHECK(warehouse.CreateView("V1", Schema::AllInt64({"A"})).ok());
    MVC_CHECK(warehouse.CreateView("V2", Schema::AllInt64({"A"})).ok());
    MVC_CHECK(warehouse.CreateView("V3", Schema::AllInt64({"A"})).ok());
    warehouse.SetRegistry(TestRegistry());
    ProcessId wpid = runtime.Register(&warehouse);
    ProcessId mpid = runtime.Register(&merge);
    merge.SetWarehouse(wpid);
    merge.EnableObservability(&metrics, &tracer);
    feeder = std::make_unique<Feeder>("feeder", mpid);
    runtime.Register(feeder.get());
    warehouse.SetCommitObserver([this](ProcessId,
                                       const WarehouseTransaction& txn,
                                       TimeMicros) {
      commit_order.push_back(txn.txn_id);
      committed_rows.push_back(txn.rows);
    });
  }

  /// The metrics registry's value for a merge counter, by base name.
  int64_t Metric(const std::string& base) const {
    const obs::MetricsSnapshot s = metrics.Snapshot();
    return obs::SumCounters(s, base);
  }

  SimRuntime runtime;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  WarehouseProcess warehouse;
  MergeProcess merge;
  std::unique_ptr<Feeder> feeder;
  std::vector<int64_t> commit_order;
  std::vector<std::vector<UpdateId>> committed_rows;
};

MergeOptions Opts(SubmissionPolicy policy,
                  MergeAlgorithm algorithm = MergeAlgorithm::kSPA) {
  MergeOptions options;
  options.algorithm = algorithm;
  options.policy = policy;
  return options;
}

WarehouseOptions Jittery(uint64_t seed) {
  WarehouseOptions options;
  options.apply_delay = 10;
  options.apply_jitter = 20000;
  options.seed = seed;
  return options;
}

void FeedThreeIndependent(Feeder* feeder) {
  feeder->Rel(1, {kV1});
  feeder->Al(kV1, 1, Tuple{1}, 1);
  feeder->Rel(2, {kV2});
  feeder->Al(kV2, 2, Tuple{2}, 1);
  feeder->Rel(3, {kV3});
  feeder->Al(kV3, 3, Tuple{3}, 1);
}

void FeedThreeSameView(Feeder* feeder) {
  feeder->Rel(1, {kV1});
  feeder->Al(kV1, 1, Tuple{1}, 1);
  feeder->Rel(2, {kV1});
  feeder->Al(kV1, 2, Tuple{2}, 1);
  feeder->Rel(3, {kV1});
  feeder->Al(kV1, 3, Tuple{3}, 1);
}

TEST(MergeProcessTest, SequentialPolicyCommitsInOrderUnderJitter) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rig rig(Opts(SubmissionPolicy::kSequential), Jittery(seed), seed);
    FeedThreeIndependent(rig.feeder.get());
    rig.runtime.Run();
    EXPECT_EQ(rig.commit_order, (std::vector<int64_t>{1, 2, 3}))
        << "seed " << seed;
    EXPECT_EQ(rig.merge.stats().transactions_committed, 3);
  }
}

TEST(MergeProcessTest, HoldDependentsLetsIndependentRaceButOrdersDependent) {
  bool independent_reordered = false;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rig rig(Opts(SubmissionPolicy::kHoldDependents), Jittery(seed), seed);
    FeedThreeIndependent(rig.feeder.get());
    rig.runtime.Run();
    ASSERT_EQ(rig.commit_order.size(), 3u);
    if (rig.commit_order != std::vector<int64_t>{1, 2, 3}) {
      independent_reordered = true;
    }
  }
  EXPECT_TRUE(independent_reordered)
      << "independent transactions should be able to commit out of order";

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rig rig(Opts(SubmissionPolicy::kHoldDependents), Jittery(seed), seed);
    FeedThreeSameView(rig.feeder.get());
    rig.runtime.Run();
    EXPECT_EQ(rig.commit_order, (std::vector<int64_t>{1, 2, 3}))
        << "seed " << seed;
  }
}

TEST(MergeProcessTest, AnnotatePolicyAttachesDependencies) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rig rig(Opts(SubmissionPolicy::kAnnotate), Jittery(seed), seed);
    FeedThreeSameView(rig.feeder.get());
    rig.runtime.Run();
    EXPECT_EQ(rig.commit_order, (std::vector<int64_t>{1, 2, 3}))
        << "seed " << seed;
  }
}

TEST(MergeProcessTest, Section43AnomalyWithoutDependencyEnforcement) {
  // Annotated dependencies but a warehouse that ignores them: with
  // jitter, dependent transactions can commit out of order — the
  // anomaly Section 4.3 warns about. (Deltas here keep the run legal;
  // the reordering itself is the violation.)
  bool anomaly = false;
  for (uint64_t seed = 1; seed <= 40 && !anomaly; ++seed) {
    WarehouseOptions wh = Jittery(seed);
    wh.honor_dependencies = false;
    Rig rig(Opts(SubmissionPolicy::kAnnotate), wh, seed);
    FeedThreeSameView(rig.feeder.get());
    rig.runtime.Run();
    ASSERT_EQ(rig.commit_order.size(), 3u);
    if (rig.commit_order != std::vector<int64_t>{1, 2, 3}) anomaly = true;
  }
  EXPECT_TRUE(anomaly);
}

TEST(MergeProcessTest, BatchedPolicyCombinesReadyTransactions) {
  MergeOptions options = Opts(SubmissionPolicy::kBatched);
  options.batch_size = 2;
  options.batch_timeout = 0;  // flush on size only
  Rig rig(options);
  FeedThreeIndependent(rig.feeder.get());
  rig.feeder->Rel(4, {kV1});
  rig.feeder->Al(kV1, 4, Tuple{4}, 1);
  rig.runtime.Run();

  // Four ready WTs -> two BWTs of two.
  ASSERT_EQ(rig.committed_rows.size(), 2u);
  EXPECT_EQ(rig.committed_rows[0], (std::vector<UpdateId>{1, 2}));
  EXPECT_EQ(rig.committed_rows[1], (std::vector<UpdateId>{3, 4}));
  EXPECT_EQ(rig.merge.stats().transactions_submitted, 2);
}

TEST(MergeProcessTest, BatchedPolicyFlushesPartialBatchOnTimeout) {
  MergeOptions options = Opts(SubmissionPolicy::kBatched);
  options.batch_size = 10;
  options.batch_timeout = 5000;
  Rig rig(options);
  FeedThreeIndependent(rig.feeder.get());
  rig.runtime.Run();
  ASSERT_EQ(rig.committed_rows.size(), 1u);
  EXPECT_EQ(rig.committed_rows[0], (std::vector<UpdateId>{1, 2, 3}));
}

TEST(MergeProcessTest, ProcessDelayCreatesBacklog) {
  MergeOptions options = Opts(SubmissionPolicy::kHoldDependents);
  options.process_delay = 1000;
  Rig rig(options);
  // Feeder delivers events 10us apart but each costs 1000us to process.
  FeedThreeSameView(rig.feeder.get());
  rig.runtime.Run();
  EXPECT_EQ(rig.commit_order.size(), 3u);
  EXPECT_GT(rig.merge.stats().peak_backlog, 0u);
}

TEST(MergeProcessTest, StatsTrackHeldListsAndRows) {
  Rig rig(Opts(SubmissionPolicy::kHoldDependents));
  rig.feeder->Rel(1, {kV1, kV2});
  rig.feeder->Al(kV1, 1, Tuple{1}, 1);  // held until V2's AL
  rig.feeder->Al(kV2, 1, Tuple{1}, 1);
  rig.runtime.Run();
  EXPECT_EQ(rig.merge.stats().rels_received, 1);
  EXPECT_EQ(rig.merge.stats().action_lists_received, 2);
  EXPECT_GE(rig.merge.stats().peak_held_action_lists, 1u);
  EXPECT_GE(rig.merge.stats().peak_open_rows, 1u);
  EXPECT_EQ(rig.merge.stats().actions_submitted, 2);
}

TEST(MergeProcessTest, PassThroughForwardsEachActionList) {
  Rig rig(Opts(SubmissionPolicy::kHoldDependents,
               MergeAlgorithm::kPassThrough));
  rig.feeder->Rel(1, {kV1, kV2});
  rig.feeder->Al(kV1, 1, Tuple{1}, 1);
  rig.feeder->Al(kV2, 1, Tuple{1}, 1);
  rig.runtime.Run();
  // No coordination: two separate warehouse transactions.
  EXPECT_EQ(rig.commit_order.size(), 2u);
}

TEST(MergeProcessTest, PiggybackedRelsAreProcessedBeforeTheirAl) {
  Rig rig(Opts(SubmissionPolicy::kHoldDependents));
  auto msg = std::make_unique<ActionListMsg>();
  msg->al.view = kV1;
  msg->al.update = 1;
  msg->al.first_update = 1;
  msg->al.covered = {1};
  msg->al.delta.target = "V1";
  msg->al.delta.Add(Tuple{1}, 1);
  RelSetMsg rel;
  rel.update_id = 1;
  rel.views = {kV1};
  msg->piggybacked_rels.push_back(std::move(rel));

  class OneShot : public Process {
   public:
    OneShot(std::string name, ProcessId to, MessagePtr msg)
        : Process(std::move(name)), to_(to), msg_(std::move(msg)) {}
    void OnStart() override { Send(to_, std::move(msg_)); }
    void OnMessage(ProcessId, MessagePtr) override {}
    ProcessId to_;
    MessagePtr msg_;
  };
  OneShot shot("shot", rig.merge.id(), std::move(msg));
  rig.runtime.Register(&shot);
  rig.runtime.Run();
  EXPECT_EQ(rig.commit_order.size(), 1u);
  EXPECT_EQ(rig.merge.stats().rels_received, 1);
}

TEST(MergeProcessTest, MisroutedActionListIsDroppedWithError) {
  Rig rig(Opts(SubmissionPolicy::kHoldDependents));
  rig.feeder->Rel(1, {kV1});
  // V9 exists in the registry but is not a column of this merge; the
  // process must log and drop rather than abort.
  rig.feeder->Al(TestRegistry()->FindView("V9").value(), 1, Tuple{1}, 1);
  rig.feeder->Al(kV1, 1, Tuple{1}, 1);
  rig.runtime.Run();
  EXPECT_EQ(rig.merge.stats().misrouted_als, 1);
  // The rejection is also visible to monitoring, not just the in-process
  // stats struct.
  EXPECT_EQ(rig.Metric("merge.misrouted_als"), 1);
  // The legitimate traffic still commits; only the accepted AL counts.
  EXPECT_EQ(rig.commit_order.size(), 1u);
  EXPECT_EQ(rig.merge.stats().action_lists_received, 1);
  EXPECT_EQ(rig.Metric("merge.action_lists_received"), 1);
}

TEST(MergeProcessTest, UnknownViewIdActionListIsDropped) {
  Rig rig(Opts(SubmissionPolicy::kHoldDependents));
  // An id the registry has never minted — the error path must not try
  // to resolve a name for it.
  auto msg = std::make_unique<ActionListMsg>();
  msg->al.view = 1234;
  msg->al.update = 1;
  msg->al.first_update = 1;
  msg->al.covered = {1};
  msg->al.delta.target = "X";
  msg->al.delta.Add(Tuple{1}, 1);
  class OneShot : public Process {
   public:
    OneShot(std::string name, ProcessId to, MessagePtr msg)
        : Process(std::move(name)), to_(to), msg_(std::move(msg)) {}
    void OnStart() override { Send(to_, std::move(msg_)); }
    void OnMessage(ProcessId, MessagePtr) override {}
    ProcessId to_;
    MessagePtr msg_;
  };
  OneShot shot("shot", rig.merge.id(), std::move(msg));
  rig.runtime.Register(&shot);
  rig.runtime.Run();
  EXPECT_EQ(rig.merge.stats().misrouted_als, 1);
  EXPECT_EQ(rig.Metric("merge.misrouted_als"), 1);
  EXPECT_TRUE(rig.commit_order.empty());
}

}  // namespace
}  // namespace mvc
