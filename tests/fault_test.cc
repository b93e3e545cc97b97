// Crash-recovery tests: fault plans, checkpointed view managers, the
// merge-process WAL, and the consistency oracle across crash boundaries.
//
// The deterministic simulator makes every scenario exactly repeatable:
// the same seed and fault plan produce the same crash interleaving, so
// a recovery bug is a reproducible test failure, not a flake.

#include <algorithm>
#include <gtest/gtest.h>
#include <set>

#include "fault/fault_plan.h"
#include "parser/scenario_parser.h"
#include "system/run_report.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"

namespace mvc {
namespace {

/// A generated workload long enough that every fault window overlaps
/// live traffic. Views V0..V2 over two sources, 40 transactions at a
/// mean 1ms apart.
Result<SystemConfig> BaseConfig(uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.num_sources = 2;
  spec.relations_per_source = 2;
  spec.num_views = 3;
  spec.num_transactions = 40;
  spec.mean_interarrival = 1000;
  MVC_ASSIGN_OR_RETURN(SystemConfig config, GenerateScenario(spec));
  config.latency = LatencyModel::Uniform(200, 500);
  return config;
}

/// Crashes each view manager once and the merge process once, staggered
/// across the workload.
void AddFaults(SystemConfig* config) {
  config->fault.plan.events = {
      FaultEvent{"vm-V0", 5000, 6000},
      FaultEvent{"vm-V1", 9000, 6000},
      FaultEvent{"vm-V2", 13000, 6000},
      FaultEvent{"merge-0", 20000, 8000},
  };
  config->fault.checkpoint_every = 3;
}

std::unique_ptr<WarehouseSystem> BuildAndRun(SystemConfig config) {
  auto system = WarehouseSystem::Build(std::move(config));
  MVC_CHECK(system.ok()) << system.status().ToString();
  (*system)->Run();
  return std::move(system).value();
}


TEST(FaultPlanTest, ParseFaultSpec) {
  auto plan = ParseFaultSpec("vm-V1@5000+30000,merge-0@12000");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_EQ(plan->events[0].target, "vm-V1");
  EXPECT_EQ(plan->events[0].at, 5000);
  EXPECT_EQ(plan->events[0].down_for, 30000);
  EXPECT_EQ(plan->events[1].target, "merge-0");
  EXPECT_EQ(plan->events[1].at, 12000);
  EXPECT_EQ(plan->events[1].down_for, 20000);  // default downtime

  EXPECT_FALSE(ParseFaultSpec("vm-V1").ok());
  EXPECT_FALSE(ParseFaultSpec("@5000").ok());
  EXPECT_FALSE(ParseFaultSpec("vm-V1@abc").ok());
}

TEST(FaultPlanTest, ScenarioFaultStatement) {
  auto config = ParseScenario(
      "source s { relation r(a, b); }\n"
      "view v = select * from r;\n"
      "txn @1000 s { insert r (1, 2); }\n"
      "fault vm-v @ 500 down 2000;\n"
      "fault merge-0 @ 800;\n");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->fault.plan.events.size(), 2u);
  EXPECT_EQ(config->fault.plan.events[0].target, "vm-v");
  EXPECT_EQ(config->fault.plan.events[0].at, 500);
  EXPECT_EQ(config->fault.plan.events[0].down_for, 2000);
  EXPECT_EQ(config->fault.plan.events[1].target, "merge-0");
}

TEST(FaultTest, BuildRejectsUnknownTarget) {
  auto config = BaseConfig(1);
  ASSERT_TRUE(config.ok());
  config->fault.plan.events = {FaultEvent{"vm-nope", 1000, 2000}};
  auto system = WarehouseSystem::Build(std::move(*config));
  ASSERT_FALSE(system.ok());
  EXPECT_NE(system.status().message().find("vm-nope"), std::string::npos)
      << system.status();
}

TEST(FaultTest, BuildRejectsConvergentManagers) {
  auto config = BaseConfig(1);
  ASSERT_TRUE(config.ok());
  config->manager_kinds["V0"] = ManagerKind::kConvergent;
  AddFaults(&*config);
  auto system = WarehouseSystem::Build(std::move(*config));
  ASSERT_FALSE(system.ok());
  EXPECT_NE(system.status().message().find("convergent"), std::string::npos)
      << system.status();
}

TEST(FaultTest, BuildRejectsPiggybackRel) {
  auto config = BaseConfig(1);
  ASSERT_TRUE(config.ok());
  config->integrator.piggyback_rel = true;
  AddFaults(&*config);
  EXPECT_FALSE(WarehouseSystem::Build(std::move(*config)).ok());
}

// The tentpole claim: crash every view manager once and the merge
// process once mid-workload; the run still reaches the same MVC verdict
// as the fault-free run, and the warehouse reflects the same updates.
TEST(FaultTest, CrashEveryProcessStillComplete) {
  auto clean_config = BaseConfig(11);
  ASSERT_TRUE(clean_config.ok());
  auto clean = BuildAndRun(std::move(*clean_config));
  ConsistencyChecker clean_checker = clean->MakeChecker();
  ASSERT_TRUE(clean_checker.CheckComplete(clean->recorder()).ok());

  auto config = BaseConfig(11);
  ASSERT_TRUE(config.ok());
  AddFaults(&*config);
  auto system = BuildAndRun(std::move(*config));

  // Every targeted process actually went down and came back.
  for (const auto& vm : system->view_managers()) {
    EXPECT_EQ(vm->crash_count(), 1) << vm->name();
    EXPECT_EQ(vm->recover_count(), 1) << vm->name();
    EXPECT_FALSE(vm->down()) << vm->name();
    EXPECT_FALSE(vm->recovering()) << vm->name();
  }
  ASSERT_EQ(system->merges().size(), 1u);
  EXPECT_EQ(system->merges()[0]->crash_count(), 1);
  EXPECT_EQ(system->merges()[0]->recover_count(), 1);
  EXPECT_FALSE(system->merges()[0]->resyncing());

  // Recovery machinery was exercised, not bypassed.
  EXPECT_GE(system->checkpoint_store()->checkpoints_saved(),
            static_cast<int64_t>(system->view_managers().size()));
  EXPECT_GT(system->merges()[0]->stats().log_entries_replayed, 0);

  // Same verdict as the fault-free run, and complete MVC holds across
  // every crash boundary (per-commit view equality + no duplicate AL).
  ConsistencyChecker checker = system->MakeChecker();
  Status verdict = checker.CheckComplete(system->recorder());
  EXPECT_TRUE(verdict.ok()) << verdict;

  // Same source schedule and, since both runs absorb the whole
  // workload, identical final warehouse contents. (Update *ids* are not
  // comparable across the runs: the injector's messages shift the
  // simulator's latency draws, so the integrator numbers arrivals
  // differently.)
  EXPECT_EQ(system->recorder().updates().size(),
            clean->recorder().updates().size());
  for (const std::string& view : clean->warehouse().store().TableNames()) {
    Result<Table> expected = clean->warehouse().MaterializeView(view);
    Result<Table> actual = system->warehouse().MaterializeView(view);
    ASSERT_TRUE(expected.ok() && actual.ok()) << view;
    EXPECT_TRUE(expected->ContentsEqual(*actual))
        << "view " << view << " diverged from the fault-free run";
  }
}

TEST(FaultTest, StrongManagersSurviveCrashes) {
  auto config = BaseConfig(23);
  ASSERT_TRUE(config.ok());
  for (const ViewDefinition& def : config->views) {
    config->manager_kinds[def.name] = ManagerKind::kStrong;
  }
  config->vm_options.delta_cost = 1500;  // force real batches
  AddFaults(&*config);
  auto system = BuildAndRun(std::move(*config));
  ConsistencyChecker checker = system->MakeChecker();
  Status verdict = checker.CheckStrong(system->recorder());
  EXPECT_TRUE(verdict.ok()) << verdict;
  for (const auto& vm : system->view_managers()) {
    EXPECT_EQ(vm->crash_count(), 1) << vm->name();
  }
  EXPECT_EQ(system->merges()[0]->crash_count(), 1);
}

// WAL audit: the submit entries the recovered merge's log ends up with
// must be exactly txn 1..N in order — replay regenerating an
// already-sent transaction (duplicate) or losing one (skip) would show
// up here even if the view contents happened to mask it.
TEST(FaultTest, MergeLogAuditNoDupNoSkip) {
  auto config = BaseConfig(11);
  ASSERT_TRUE(config.ok());
  AddFaults(&*config);
  auto system = BuildAndRun(std::move(*config));
  ASSERT_EQ(system->merge_logs().size(), 1u);

  std::vector<int64_t> submitted;
  int64_t acked = 0;
  for (const MergeLogEntry& entry : system->merge_logs()[0]->Snapshot()) {
    if (entry.kind == MergeLogEntry::Kind::kSubmit) {
      submitted.push_back(entry.txn_id);
    } else if (entry.kind == MergeLogEntry::Kind::kAck) {
      ++acked;
    }
  }
  ASSERT_FALSE(submitted.empty());
  for (size_t i = 0; i < submitted.size(); ++i) {
    EXPECT_EQ(submitted[i], static_cast<int64_t>(i) + 1)
        << "gap or duplicate in the submitted transaction sequence";
  }
  // Everything submitted was eventually acknowledged exactly once.
  EXPECT_EQ(acked, static_cast<int64_t>(submitted.size()));
  EXPECT_EQ(system->warehouse().transactions_committed(),
            static_cast<int64_t>(submitted.size()));
}

// Determinism: same seed + same fault plan => byte-identical report.
TEST(FaultTest, DeterministicReplayByteIdenticalReports) {
  std::string reports[2];
  for (int run = 0; run < 2; ++run) {
    auto config = BaseConfig(31);
    ASSERT_TRUE(config.ok());
    AddFaults(&*config);
    auto system = BuildAndRun(std::move(*config));
    reports[run] = RunReportString(*system);
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
}

// Real threads: the same recovery protocol under genuine concurrency.
// Wall-clock fault times are generous multiples of the workload rate so
// the schedule overlaps live traffic without racing the run's end.
TEST(FaultTest, ThreadRuntimeFaultySmoke) {
  WorkloadSpec spec;
  spec.seed = 7;
  spec.num_sources = 2;
  spec.relations_per_source = 2;
  spec.num_views = 3;
  spec.num_transactions = 30;
  spec.mean_interarrival = 500;
  auto config = GenerateScenario(spec);
  ASSERT_TRUE(config.ok());
  config->use_threads = true;
  config->latency = LatencyModel::Uniform(0, 200);
  config->fault.plan.events = {
      FaultEvent{"vm-V0", 3000, 4000},
      FaultEvent{"merge-0", 6000, 4000},
  };
  auto system = BuildAndRun(std::move(*config));
  EXPECT_EQ(system->view_managers()[0]->crash_count(), 1);
  EXPECT_EQ(system->merges()[0]->crash_count(), 1);
  EXPECT_FALSE(system->merges()[0]->down());
  ConsistencyChecker checker = system->MakeChecker();
  Status verdict = checker.CheckStrong(system->recorder());
  EXPECT_TRUE(verdict.ok()) << verdict;
}

}  // namespace
}  // namespace mvc
