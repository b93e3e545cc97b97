// Property sweeps: for randomized workloads across seeds, latencies,
// manager kinds, merge topologies, and submission policies, the system
// must satisfy the consistency level the theory promises.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "common/string_util.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"

namespace mvc {
namespace {

struct SweepCase {
  std::string name;
  uint64_t seed;
  ManagerKind manager;
  SubmissionPolicy policy;
  size_t merge_processes;
  bool pruning;
  bool piggyback;
  TimeMicros latency_jitter;
  TimeMicros delta_cost;
  int updates_per_txn;
  double global_fraction;
  bool aggregate_first = false;  // turn V0 into an aggregate view
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  return info.param.name;
}

SystemConfig MakeConfig(const SweepCase& c) {
  WorkloadSpec spec;
  spec.seed = c.seed;
  spec.num_sources = 2;
  spec.relations_per_source = 2;
  spec.num_views = 5;
  spec.max_view_width = 3;
  spec.num_transactions = 40;
  spec.updates_per_transaction = c.updates_per_txn;
  spec.mean_interarrival = 800;
  spec.global_txn_fraction = c.global_fraction;
  auto config = GenerateScenario(spec);
  MVC_CHECK(config.ok()) << config.status().ToString();

  for (const ViewDefinition& def : config->views) {
    config->manager_kinds[def.name] = c.manager;
  }
  config->merge.policy = c.policy;
  config->num_merge_processes = c.merge_processes;
  config->integrator.relevance_pruning = c.pruning;
  config->integrator.piggyback_rel = c.piggyback;
  config->latency = LatencyModel::Uniform(200, c.latency_jitter);
  config->vm_options.delta_cost = c.delta_cost;
  config->strong_options.max_batch = 6;
  config->warehouse.apply_delay = 50;
  config->warehouse.apply_jitter = 2000;
  config->warehouse.seed = c.seed * 13 + 1;
  config->seed = c.seed * 7 + 3;

  if (c.aggregate_first) {
    // Make the first generated view an aggregate over its SPJ core:
    // group by the first output column, COUNT(*) and SUM over the last.
    auto bound = BoundView::Bind(config->views[0], config->schemas);
    MVC_CHECK(bound.ok()) << bound.status().ToString();
    const Schema& out = bound->output_schema();
    AggregateSpec spec;
    spec.group_by = {out.column(0).name};
    spec.aggregates = {
        AggregateColumn{AggregateFn::kCount, "", "n"},
        AggregateColumn{AggregateFn::kSum,
                        out.column(out.num_columns() - 1).name, "total"}};
    config->aggregates[config->views[0].name] = spec;
  }
  return std::move(*config);
}

class MvcPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MvcPropertyTest, SatisfiesPromisedConsistencyLevel) {
  const SweepCase& c = GetParam();
  auto system = WarehouseSystem::Build(MakeConfig(c));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  (*system)->Run();

  ConsistencyChecker checker = (*system)->MakeChecker();
  const ConsistencyRecorder& recorder = (*system)->recorder();

  if (c.aggregate_first) {
    // An aggregate manager in the mix caps the guarantee at strong.
    EXPECT_TRUE(checker.CheckStrong(recorder).ok())
        << checker.CheckStrong(recorder);
    EXPECT_GT(recorder.commits().size(), 0u);
    return;
  }
  switch (c.manager) {
    case ManagerKind::kComplete: {
      // Complete managers + SPA + non-batched submission: complete MVC.
      if (c.policy == SubmissionPolicy::kBatched) {
        EXPECT_TRUE(checker.CheckStrong(recorder).ok())
            << checker.CheckStrong(recorder);
      } else {
        EXPECT_TRUE(checker.CheckComplete(recorder).ok())
            << checker.CheckComplete(recorder);
      }
      break;
    }
    case ManagerKind::kStrong:
    case ManagerKind::kPeriodic:
    case ManagerKind::kCompleteN:
      EXPECT_TRUE(checker.CheckStrong(recorder).ok())
          << checker.CheckStrong(recorder);
      break;
    case ManagerKind::kConvergent:
      EXPECT_TRUE(checker.CheckConvergent(recorder).ok())
          << checker.CheckConvergent(recorder);
      break;
  }

  // Sanity: the run actually exercised the pipeline.
  EXPECT_GT(recorder.commits().size(), 0u);
  // Global-transaction parts merge into one numbered unit, so the count
  // always equals the number of generated transactions.
  EXPECT_EQ(recorder.updates().size(), 40u);
}

std::vector<SweepCase> BuildSweep() {
  std::vector<SweepCase> cases;
  int id = 0;
  auto add = [&](ManagerKind manager, SubmissionPolicy policy,
                 size_t merges, bool pruning, bool piggyback,
                 TimeMicros jitter, TimeMicros cost, int upt,
                 double global, uint64_t seed) {
    SweepCase c;
    c.name = "case" + std::to_string(id++);
    c.seed = seed;
    c.manager = manager;
    c.policy = policy;
    c.merge_processes = merges;
    c.pruning = pruning;
    c.piggyback = piggyback;
    c.latency_jitter = jitter;
    c.delta_cost = cost;
    c.updates_per_txn = upt;
    c.global_fraction = global;
    cases.push_back(c);
  };

  // Complete managers under every submission policy and seed spread.
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    add(ManagerKind::kComplete, SubmissionPolicy::kSequential, 1, true,
        false, 3000, 500, 1, 0.0, seed);
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 1, true,
        false, 3000, 500, 1, 0.0, seed + 10);
    add(ManagerKind::kComplete, SubmissionPolicy::kAnnotate, 1, true, false,
        3000, 500, 1, 0.0, seed + 20);
    add(ManagerKind::kComplete, SubmissionPolicy::kBatched, 1, true, false,
        3000, 500, 1, 0.0, seed + 30);
  }
  // Strong managers: heavy delta cost induces real batching.
  for (uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    add(ManagerKind::kStrong, SubmissionPolicy::kHoldDependents, 1, true,
        false, 5000, 4000, 1, 0.0, seed + 40);
  }
  // Distributed merge.
  for (uint64_t seed : {1, 2, 3}) {
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 3, true,
        false, 3000, 500, 1, 0.0, seed + 50);
    add(ManagerKind::kStrong, SubmissionPolicy::kHoldDependents, 2, true,
        false, 3000, 2000, 1, 0.0, seed + 60);
  }
  // Pruning off, piggyback on.
  for (uint64_t seed : {1, 2, 3}) {
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 1, false,
        false, 3000, 500, 1, 0.0, seed + 70);
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 1, true,
        true, 3000, 500, 1, 0.0, seed + 80);
  }
  // Multi-update transactions (Section 6.2) and global transactions.
  for (uint64_t seed : {1, 2, 3}) {
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 1, true,
        false, 3000, 500, 3, 0.0, seed + 90);
    add(ManagerKind::kStrong, SubmissionPolicy::kHoldDependents, 1, true,
        false, 3000, 1500, 2, 0.3, seed + 100);
  }
  // Piggyback REL delivery combined with distributed merge.
  for (uint64_t seed : {1, 2, 3}) {
    add(ManagerKind::kComplete, SubmissionPolicy::kHoldDependents, 3, true,
        true, 4000, 500, 1, 0.0, seed + 140);
    add(ManagerKind::kStrong, SubmissionPolicy::kHoldDependents, 2, true,
        true, 4000, 2000, 1, 0.0, seed + 150);
  }
  // Aggregate view in the mix (complete and strong peers).
  for (uint64_t seed : {1, 2, 3}) {
    SweepCase c;
    c.name = "case" + std::to_string(id++);
    c.seed = seed + 160;
    c.manager = ManagerKind::kComplete;
    c.policy = SubmissionPolicy::kHoldDependents;
    c.merge_processes = 1;
    c.pruning = true;
    c.piggyback = false;
    c.latency_jitter = 3000;
    c.delta_cost = 500;
    c.updates_per_txn = 1;
    c.global_fraction = 0.0;
    c.aggregate_first = true;
    cases.push_back(c);
    SweepCase s2 = c;
    s2.name = "case" + std::to_string(id++);
    s2.seed = seed + 170;
    s2.manager = ManagerKind::kStrong;
    s2.delta_cost = 2000;
    cases.push_back(s2);
  }
  // Periodic / complete-N / convergent managers.
  for (uint64_t seed : {1, 2}) {
    add(ManagerKind::kPeriodic, SubmissionPolicy::kHoldDependents, 1, true,
        false, 2000, 300, 1, 0.0, seed + 110);
    add(ManagerKind::kCompleteN, SubmissionPolicy::kHoldDependents, 1, true,
        false, 2000, 300, 1, 0.0, seed + 120);
    add(ManagerKind::kConvergent, SubmissionPolicy::kHoldDependents, 1,
        true, false, 2000, 300, 1, 0.0, seed + 130);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MvcPropertyTest,
                         ::testing::ValuesIn(BuildSweep()), CaseName);

// ---------------------------------------------------------------------------
// Cross-shard ingest sweep.
//
// Two independent source clusters; inside each cluster the views join
// relations hosted by BOTH of its sources (intertwined view groups), so
// the shard planner must co-locate each cluster onto one integrator
// shard and the exact partition yields one merge process per cluster.
// Randomized single-source and cluster-local global transactions flow
// through both shards concurrently while a reader pool observes the
// warehouse. Every reader observation must equal the oracle catalog at
// exactly its as_of_commit — on the simulator and on real threads, with
// group commit on and off.

struct CrossShardCase {
  std::string name;
  uint64_t seed;
  bool use_threads;
  bool group_commit;
};

std::string CrossShardCaseName(
    const ::testing::TestParamInfo<CrossShardCase>& info) {
  return info.param.name;
}

/// Two-relation join view with an explicit two-column projection.
ViewDefinition JoinView(const char* name, const char* lr, const char* lc,
                        const char* rr, const char* rc) {
  ViewDefinition def;
  def.name = name;
  def.relations = {lr, rr};
  def.predicate = Predicate::ColEqCol(ColumnRef{lr, lc}, ColumnRef{rr, rc});
  def.projection = {ColumnRef{lr, lc}, ColumnRef{rr, rc}};
  return def;
}

/// Builds the two-cluster scenario; `*numbered_units` receives the
/// number of units the integrators will sequence (global transactions
/// merge into one unit each).
SystemConfig MakeCrossShardConfig(const CrossShardCase& c,
                                  size_t* numbered_units) {
  SystemConfig config;
  config.sources["srcA0"] = {"R", "S"};
  config.sources["srcA1"] = {"T"};
  config.sources["srcB0"] = {"U", "W"};
  config.sources["srcB1"] = {"X"};
  config.schemas["R"] = Schema::AllInt64({"A", "B"});
  config.schemas["S"] = Schema::AllInt64({"B", "C"});
  config.schemas["T"] = Schema::AllInt64({"C", "D"});
  config.schemas["U"] = Schema::AllInt64({"E", "F"});
  config.schemas["W"] = Schema::AllInt64({"F", "G"});
  config.schemas["X"] = Schema::AllInt64({"G", "H"});
  config.initial_data["R"] = {Tuple{1, 2}};
  config.initial_data["T"] = {Tuple{3, 4}};
  config.initial_data["U"] = {Tuple{1, 2}};
  config.initial_data["X"] = {Tuple{3, 4}};
  // Cluster A: VA1 spans srcA0's relations, VA2 spans srcA0 and srcA1
  // (S is shared, so both views land in one merge group). Cluster B is
  // the mirror image over U/W/X.
  config.views = {JoinView("VA1", "R", "B", "S", "B"),
                  JoinView("VA2", "S", "C", "T", "C"),
                  JoinView("VB1", "U", "F", "W", "F"),
                  JoinView("VB2", "W", "G", "X", "G")};

  config.ingest.num_shards = 2;
  config.ingest.fanout_merge = true;
  config.ingest.group_commit.enabled = c.group_commit;
  config.ingest.group_commit.max_batch = 4;
  config.ingest.group_commit.max_delay_us = 3000;
  config.merge.policy = SubmissionPolicy::kHoldDependents;
  config.latency = LatencyModel::Uniform(200, 3000);
  config.warehouse.apply_delay = 50;
  config.warehouse.apply_jitter = 2000;
  config.warehouse.seed = c.seed * 13 + 1;
  config.seed = c.seed * 7 + 3;
  config.use_threads = c.use_threads;

  // Randomized workload: mostly single-source transactions on a random
  // relation; a fraction are global transactions joining both sources
  // of one cluster (the shard plan keeps the participants co-located).
  const std::map<std::string, std::vector<std::string>> hosted = {
      {"srcA0", {"R", "S"}},
      {"srcA1", {"T"}},
      {"srcB0", {"U", "W"}},
      {"srcB1", {"X"}}};
  const std::vector<std::string> source_names = {"srcA0", "srcA1", "srcB0",
                                                 "srcB1"};
  Rng rng(c.seed * 31 + 7);
  TimeMicros at = 0;
  int64_t next_global = 0;
  *numbered_units = 0;
  auto random_insert = [&](const std::string& source) {
    const std::vector<std::string>& relations = hosted.at(source);
    const std::string& relation = relations[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(relations.size()) - 1))];
    return Update::Insert(source, relation,
                          Tuple{rng.UniformInt(0, 4), rng.UniformInt(0, 4)});
  };
  for (int t = 0; t < 32; ++t) {
    at += static_cast<TimeMicros>(rng.Exponential(800.0));
    ++*numbered_units;
    if (rng.Bernoulli(0.25)) {
      // Cluster-local global transaction: one part per source.
      const bool cluster_a = rng.Bernoulli(0.5);
      ++next_global;
      for (const char* source :
           {cluster_a ? "srcA0" : "srcB0", cluster_a ? "srcA1" : "srcB1"}) {
        Injection part;
        part.at = at;
        part.source = source;
        part.updates = {random_insert(source)};
        part.global_txn_id = next_global;
        part.global_participants = 2;
        config.workload.push_back(std::move(part));
      }
      continue;
    }
    Injection inj;
    inj.at = at;
    inj.source = source_names[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(source_names.size()) - 1))];
    inj.updates = {random_insert(inj.source)};
    config.workload.push_back(std::move(inj));
  }
  return config;
}

class CrossShardPropertyTest
    : public ::testing::TestWithParam<CrossShardCase> {};

TEST_P(CrossShardPropertyTest, ReadersObserveOracleStatesAcrossShards) {
  const CrossShardCase& c = GetParam();
  size_t numbered_units = 0;
  auto system =
      WarehouseSystem::Build(MakeCrossShardConfig(c, &numbered_units));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_EQ((*system)->integrator_shards().size(), 2u);
  ASSERT_EQ((*system)->merges().size(), 2u);

  ReaderPoolOptions pool;
  pool.num_readers = 3;
  pool.reads_per_reader = 10;
  pool.mean_interval_us = 2500.0;
  pool.seed = c.seed;
  std::vector<WarehouseReader*> readers = (*system)->AttachReaderPool(pool);
  (*system)->Run();

  const ConsistencyRecorder& recorder = (*system)->recorder();
  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(recorder).ok())
      << checker.CheckComplete(recorder);
  EXPECT_EQ(recorder.updates().size(), numbered_units);
  EXPECT_EQ((*system)->tickets_issued(),
            static_cast<int64_t>(numbered_units));

  // Oracle state per commit count, replayed from the committed action
  // lists: commit 0 is every view evaluated over the initial base.
  std::vector<Catalog> states;
  Status replayed = checker.ReplayWarehouseStates(
      recorder, [&](int64_t, const Catalog& views) {
        states.push_back(views.Clone());
        return Status::OK();
      }).status();
  ASSERT_TRUE(replayed.ok()) << replayed;

  size_t checked = 0;
  for (const WarehouseReader* reader : readers) {
    ASSERT_EQ(reader->observations().size(), pool.reads_per_reader);
    for (const auto& obs : reader->observations()) {
      ASSERT_TRUE(obs.ok()) << obs.error;
      ASSERT_EQ(obs.snapshots.size(), 4u);
      ASSERT_GE(obs.as_of_commit, 0);
      ASSERT_LE(obs.as_of_commit,
                static_cast<int64_t>(recorder.commits().size()));
      for (const Table& got : obs.snapshots) {
        auto want = states[static_cast<size_t>(obs.as_of_commit)].GetTable(
            got.name());
        ASSERT_TRUE(want.ok()) << "unknown view " << got.name();
        EXPECT_TRUE(got.ContentsEqual(**want))
            << c.name << ": view " << got.name() << " torn at commit "
            << obs.as_of_commit << ".\nExpected:\n"
            << (*want)->ToString() << "Actual:\n"
            << got.ToString();
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, pool.num_readers * pool.reads_per_reader * 4u);
}

std::vector<CrossShardCase> BuildCrossShardSweep() {
  std::vector<CrossShardCase> cases;
  for (uint64_t seed : {1, 2, 3}) {
    for (bool threads : {false, true}) {
      for (bool group_commit : {false, true}) {
        CrossShardCase c;
        c.name = StrCat("s", seed, threads ? "_thread" : "_sim",
                        group_commit ? "_gc" : "_solo");
        c.seed = seed;
        c.use_threads = threads;
        c.group_commit = group_commit;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CrossShard, CrossShardPropertyTest,
                         ::testing::ValuesIn(BuildCrossShardSweep()),
                         CrossShardCaseName);

}  // namespace
}  // namespace mvc
