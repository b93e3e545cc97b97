// End-to-end system tests: the full Figure 1 pipeline on the paper's
// scenarios, the sequential baseline, distributed merge, mixed manager
// kinds, global transactions, and the no-coordination counterexample.

#include <gtest/gtest.h>

#include "system/warehouse_system.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

std::unique_ptr<WarehouseSystem> BuildAndRun(SystemConfig config) {
  auto system = WarehouseSystem::Build(std::move(config));
  MVC_CHECK(system.ok()) << system.status().ToString();
  (*system)->Run();
  return std::move(system).value();
}

TEST(SystemTest, Table1ScenarioIsCompleteUnderSpa) {
  auto system = BuildAndRun(Table1Scenario());
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok());

  // Both views updated in ONE warehouse transaction: the Example 1
  // inconsistency window cannot exist.
  ASSERT_EQ(system->recorder().commits().size(), 1u);
  EXPECT_EQ(system->recorder().commits()[0].txn.views,
            (std::vector<ViewId>{*system->registry().FindView("V1"),
                                 *system->registry().FindView("V2")}));
  EXPECT_EQ(system->warehouse().MaterializeView("V1")->CountOf(
                Tuple{1, 2, 3}),
            1);
  EXPECT_EQ(system->warehouse().MaterializeView("V2")->CountOf(
                Tuple{2, 3, 4}),
            1);
}

TEST(SystemTest, Example3ScenarioCompleteWithLatency) {
  SystemConfig config = Example3Scenario();
  config.latency = LatencyModel::Uniform(500, 3000);
  config.seed = 7;
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, Example5ScenarioStrongWithStrongManagers) {
  SystemConfig config = Example5Scenario();
  config.manager_kinds = {{"V1", ManagerKind::kStrong},
                          {"V2", ManagerKind::kStrong},
                          {"V3", ManagerKind::kStrong}};
  config.vm_options.delta_cost = 3000;  // force batching under load
  config.latency = LatencyModel::Uniform(500, 1000);
  auto system = BuildAndRun(std::move(config));
  // Auto algorithm selection must have chosen PA.
  ASSERT_EQ(system->merges().size(), 1u);
  EXPECT_EQ(system->merges()[0]->engine().algorithm(), MergeAlgorithm::kPA);
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong(system->recorder()).ok())
      << checker.CheckStrong(system->recorder());
}

TEST(SystemTest, SequentialBaselineIsComplete) {
  SystemConfig config = Example3Scenario();
  config.sequential_baseline = true;
  config.sequential.delta_cost = 1000;
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
  EXPECT_EQ(system->sequential_integrator()->num_updates(), 3);
}

TEST(SystemTest, DistributedMergeUsesDisjointGroups) {
  // V1/V2 share S; V3 (over Q) is disjoint: two merge processes.
  SystemConfig config = Example3Scenario();
  config.num_merge_processes = 2;
  auto system = BuildAndRun(std::move(config));
  ASSERT_EQ(system->merges().size(), 2u);
  EXPECT_EQ(system->view_groups()[0].views,
            (std::vector<std::string>{"V1", "V2"}));
  EXPECT_EQ(system->view_groups()[1].views,
            (std::vector<std::string>{"V3"}));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, MixedManagerKindsFallBackToWeakestAlgorithm) {
  SystemConfig config = Example3Scenario();
  // V1 complete, V2 strong -> same group -> PA; V3 complete alone -> SPA.
  config.manager_kinds = {{"V2", ManagerKind::kStrong}};
  config.num_merge_processes = 2;
  auto system = BuildAndRun(std::move(config));
  ASSERT_EQ(system->merges().size(), 2u);
  EXPECT_EQ(system->merges()[0]->engine().algorithm(), MergeAlgorithm::kPA);
  EXPECT_EQ(system->merges()[1]->engine().algorithm(), MergeAlgorithm::kSPA);
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong(system->recorder()).ok())
      << checker.CheckStrong(system->recorder());
}

TEST(SystemTest, ConvergentManagersConvergeWithoutIntermediateGuarantees) {
  SystemConfig config = Example3Scenario();
  config.manager_kinds = {{"V1", ManagerKind::kConvergent},
                          {"V2", ManagerKind::kConvergent},
                          {"V3", ManagerKind::kConvergent}};
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckConvergent(system->recorder()).ok())
      << checker.CheckConvergent(system->recorder());
}

TEST(SystemTest, PeriodicManagerIsStrong) {
  SystemConfig config = Example3Scenario();
  config.manager_kinds = {{"V1", ManagerKind::kPeriodic},
                          {"V2", ManagerKind::kPeriodic},
                          {"V3", ManagerKind::kPeriodic}};
  config.periodic_options.period = 10000;
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong(system->recorder()).ok())
      << checker.CheckStrong(system->recorder());
}

TEST(SystemTest, CompleteNManagerIsStrong) {
  SystemConfig config = Example3Scenario();
  config.manager_kinds = {{"V2", ManagerKind::kCompleteN}};
  config.complete_n = 2;
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckStrong(system->recorder()).ok())
      << checker.CheckStrong(system->recorder());
}

TEST(SystemTest, GlobalTransactionUpdatesAllViewsAtomically) {
  // Section 6.2: one global transaction inserts into S (src0) and Q
  // (src1); V1/V2 and V3 must move together.
  SystemConfig config = PaperBaseConfig();
  config.initial_data["R"] = {Tuple{1, 2}};
  config.initial_data["T"] = {Tuple{3, 4}};
  config.views = {PaperV1(), PaperV2(), PaperV3()};
  Injection part1;
  part1.at = 1000;
  part1.source = "src0";
  part1.updates = {Update::Insert("src0", "S", Tuple{2, 3})};
  part1.global_txn_id = 5;
  part1.global_participants = 2;
  Injection part2 = part1;
  part2.source = "src1";
  part2.updates = {Update::Insert("src1", "Q", Tuple{7, 8})};
  config.workload = {part1, part2};

  auto system = BuildAndRun(std::move(config));
  ASSERT_EQ(system->recorder().commits().size(), 1u);
  EXPECT_EQ(system->recorder().commits()[0].txn.views,
            (std::vector<ViewId>{*system->registry().FindView("V1"),
                                 *system->registry().FindView("V2"),
                                 *system->registry().FindView("V3")}));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, PiggybackRelSchemePreservesCompleteness) {
  SystemConfig config = Example3Scenario();
  config.integrator.piggyback_rel = true;
  config.latency = LatencyModel::Uniform(500, 2000);
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, WithoutMergeCoordinationMvcIsViolated) {
  // Negative control: bypass the painting algorithms (pass-through) for
  // complete managers and add asymmetric latencies; with several views
  // over the shared relation some seed exhibits an Example 1 window.
  bool violated = false;
  for (uint64_t seed = 1; seed <= 25 && !violated; ++seed) {
    SystemConfig config = Example3Scenario();
    config.auto_algorithm = false;
    config.merge.algorithm = MergeAlgorithm::kPassThrough;
    config.latency = LatencyModel::Uniform(500, 8000);
    config.vm_options.delta_cost = 2000;
    config.seed = seed;
    auto system = BuildAndRun(std::move(config));
    ConsistencyChecker checker = system->MakeChecker();
    if (!checker.CheckStrong(system->recorder()).ok()) violated = true;
    // Convergence still holds: every AL is eventually applied.
    EXPECT_TRUE(checker.CheckConvergent(system->recorder()).ok());
  }
  EXPECT_TRUE(violated)
      << "pass-through should violate MVC for some interleaving";
}

TEST(SystemTest, ThreadRuntimeEndToEnd) {
  SystemConfig config = Example3Scenario();
  config.use_threads = true;
  auto system = BuildAndRun(std::move(config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, GeneratorProducesRunnableScenario) {
  WorkloadSpec spec;
  spec.num_transactions = 30;
  spec.seed = 5;
  auto config = GenerateScenario(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->workload.size(), 30u);
  auto system = BuildAndRun(std::move(*config));
  ConsistencyChecker checker = system->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete(system->recorder()).ok())
      << checker.CheckComplete(system->recorder());
}

TEST(SystemTest, BuildRejectsUnhostedRelation) {
  SystemConfig config = Table1Scenario();
  config.schemas["Z"] = Schema::AllInt64({"A"});
  EXPECT_FALSE(WarehouseSystem::Build(std::move(config)).ok());
}

TEST(SystemTest, BuildRejectsDoublyHostedRelation) {
  SystemConfig config = Table1Scenario();
  config.sources["src1"].push_back("R");
  EXPECT_FALSE(WarehouseSystem::Build(std::move(config)).ok());
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

TEST(SystemTest, RejectsTransactionsSpanningDisjointMergeGroups) {
  // V1 over {R,S} and V3 over {Q} are disjoint groups under 2 merge
  // processes; a single transaction updating S and Q would need
  // cross-group atomicity, which distributed merge cannot provide.
  SystemConfig config = PaperBaseConfig();
  config.views = {PaperV1(), PaperV3()};
  config.num_merge_processes = 2;
  Injection inj;
  inj.at = 1000;
  inj.source = "src0";
  inj.updates = {Update::Insert("src0", "S", Tuple{2, 3})};
  Injection spanning;
  spanning.at = 2000;
  spanning.source = "src1";
  spanning.updates = {Update::Insert("src1", "Q", Tuple{1, 1}),
                      Update::Insert("src1", "T", Tuple{9, 9})};
  config.workload = {inj, spanning};
  // T is not in any view: the second txn touches only group {V3}: OK.
  ASSERT_TRUE(WarehouseSystem::Build(config).ok());

  // Now make it genuinely span: S (group of V1) and Q (group of V3) at
  // their respective sources via a global transaction.
  SystemConfig bad = PaperBaseConfig();
  bad.views = {PaperV1(), PaperV3()};
  bad.num_merge_processes = 2;
  Injection part1;
  part1.at = 1000;
  part1.source = "src0";
  part1.updates = {Update::Insert("src0", "S", Tuple{2, 3})};
  part1.global_txn_id = 9;
  part1.global_participants = 2;
  Injection part2 = part1;
  part2.source = "src1";
  part2.updates = {Update::Insert("src1", "Q", Tuple{1, 1})};
  bad.workload = {part1, part2};
  auto result = WarehouseSystem::Build(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("disjoint merge groups"),
            std::string::npos);

  // The same workload under a single merge process is fine.
  bad = PaperBaseConfig();
  bad.views = {PaperV1(), PaperV3()};
  bad.num_merge_processes = 1;
  bad.workload = {part1, part2};
  auto ok = WarehouseSystem::Build(std::move(bad));
  ASSERT_TRUE(ok.ok());
  (*ok)->Run();
  ConsistencyChecker checker = (*ok)->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete((*ok)->recorder()).ok());
}

}  // namespace
}  // namespace mvc
