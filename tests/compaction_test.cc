// Tests for the background compaction subsystem (src/compact/):
// the tiered keeper rule, plan shape, the chunk-squash rebuild, the
// VersionedStore apply primitives (collapse / swap), a randomized
// pinned-snapshot byte-identity property, the CompactorProcess
// scheduler on SimRuntime, and an end-to-end WarehouseSystem run with
// compaction enabled under the consistency oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "compact/chunk_squash.h"
#include "compact/compaction_policy.h"
#include "compact/compactor_process.h"
#include "net/sim_runtime.h"
#include "storage/id_registry.h"
#include "storage/versioned_store.h"
#include "system/warehouse_system.h"
#include "warehouse/warehouse.h"
#include "workload/generator.h"

namespace mvc {
namespace {

Schema TwoCol() { return Schema::AllInt64({"A", "B"}); }

/// --- Tiered keeper rule ---

TEST(TieredPolicyTest, HotWindowAlwaysKept) {
  TieredCompactionOptions opts;
  opts.hot_window = 8;
  TieredCompactionPolicy policy(opts);
  const int64_t latest = 100;
  for (int64_t c = latest - opts.hot_window + 1; c <= latest; ++c) {
    EXPECT_TRUE(policy.IsKeeper(c, latest)) << "hot commit " << c;
  }
}

TEST(TieredPolicyTest, CommitZeroAlwaysKept) {
  TieredCompactionPolicy policy;
  for (int64_t latest : {10, 100, 10000, 1000000}) {
    EXPECT_TRUE(policy.IsKeeper(0, latest)) << "latest=" << latest;
  }
}

TEST(TieredPolicyTest, ColdTiersThinExponentially) {
  TieredCompactionOptions opts;
  opts.hot_window = 4;
  opts.tier_base = 2;
  TieredCompactionPolicy policy(opts);
  const int64_t latest = 1000;
  // Ages in [4, 8): keep commits divisible by 2.
  EXPECT_TRUE(policy.IsKeeper(996, latest));
  EXPECT_FALSE(policy.IsKeeper(995, latest));
  // Ages in [8, 16): keep commits divisible by 4.
  EXPECT_TRUE(policy.IsKeeper(992, latest));
  EXPECT_FALSE(policy.IsKeeper(990, latest));
  // Ages in [16, 32): keep commits divisible by 8.
  EXPECT_TRUE(policy.IsKeeper(976, latest));
  EXPECT_FALSE(policy.IsKeeper(980, latest));
}

// The load-bearing property: once a commit stops being a keeper it
// never becomes one again as the latest commit advances. A version
// collapsed today would never have been needed tomorrow.
TEST(TieredPolicyTest, KeeperSetShrinksMonotonically) {
  TieredCompactionOptions opts;
  opts.hot_window = 4;
  opts.tier_base = 2;
  TieredCompactionPolicy policy(opts);
  for (int64_t c = 0; c <= 128; ++c) {
    bool was_dropped = false;
    for (int64_t latest = c; latest <= 512; ++latest) {
      const bool keep = policy.IsKeeper(c, latest);
      if (was_dropped) {
        EXPECT_FALSE(keep) << "commit " << c << " resurrected at latest "
                           << latest;
      }
      if (!keep) was_dropped = true;
    }
  }
}

/// --- Plan shape ---

StoreStats MakeStats(int64_t latest, int64_t oldest) {
  StoreStats stats;
  stats.latest_commit = latest;
  stats.watermark = oldest;
  stats.retained_versions = static_cast<size_t>(latest - oldest + 1);
  for (int64_t c = oldest; c <= latest; ++c) {
    VersionStats vs;
    vs.commit_id = c;
    TableVersionStats ts;
    ts.table = "V1";
    ts.num_chunks = 8;
    ts.distinct = 100;
    vs.tables.push_back(ts);
    stats.versions.push_back(vs);
  }
  return stats;
}

TEST(TieredPolicyTest, PlanNeverTargetsLatestOrPinned) {
  TieredCompactionOptions opts;
  opts.hot_window = 1;
  TieredCompactionPolicy policy(opts);
  StoreStats stats = MakeStats(/*latest=*/20, /*oldest=*/1);
  for (VersionStats& vs : stats.versions) {
    if (vs.commit_id == 7) vs.pinned = true;
  }
  for (const CompactionSpec& spec : policy.Plan(stats)) {
    if (spec.kind != CompactionKind::kCollapseVersions) continue;
    for (int64_t victim : spec.victims) {
      EXPECT_NE(victim, 20) << "planned the latest version";
      EXPECT_NE(victim, 7) << "planned a pinned version";
    }
  }
}

TEST(TieredPolicyTest, PlanRespectsBounds) {
  TieredCompactionOptions opts;
  opts.hot_window = 1;
  opts.max_specs = 2;
  opts.max_victims_per_spec = 3;
  TieredCompactionPolicy policy(opts);
  std::vector<CompactionSpec> specs = policy.Plan(MakeStats(100, 1));
  EXPECT_LE(specs.size(), 2u);
  for (const CompactionSpec& spec : specs) {
    EXPECT_LE(spec.victims.size(), 3u);
  }
}

TEST(TieredPolicyTest, PlanEmitsSquashForWastefulColdKeeper) {
  TieredCompactionOptions opts;
  opts.hot_window = 2;
  opts.rows_per_chunk = 64;
  opts.squash_waste_factor = 2.0;
  TieredCompactionPolicy policy(opts);
  StoreStats stats = MakeStats(/*latest=*/20, /*oldest=*/16);
  // Commit 16 is a cold keeper (divisible, outside hot window) whose 64
  // chunks dwarf the 8 a 100-distinct table wants.
  stats.versions.front().tables[0].num_chunks = 64;
  bool squash_planned = false;
  for (const CompactionSpec& spec : policy.Plan(stats)) {
    if (spec.kind == CompactionKind::kSquashChunks) {
      EXPECT_EQ(spec.commit_id, 16);
      EXPECT_EQ(spec.table, "V1");
      squash_planned = true;
    }
  }
  EXPECT_TRUE(squash_planned);
}

/// --- Chunk squash ---

TEST(ChunkSquashTest, IdealChunkCountIsPowerOfTwoFlooredAtMin) {
  EXPECT_EQ(IdealChunkCount(0, 64), VersionedTable::kMinChunks);
  EXPECT_EQ(IdealChunkCount(100, 64), VersionedTable::kMinChunks);
  EXPECT_EQ(IdealChunkCount(64 * 8, 64), 8u);
  EXPECT_EQ(IdealChunkCount(64 * 9, 64), 16u);
  EXPECT_EQ(IdealChunkCount(64 * 1000, 64), 1024u);
}

TEST(ChunkSquashTest, RebuildPreservesContentsAtIdealCount) {
  // Grow a table far past its final size, then shrink it: chunks never
  // shrink, so the sealed version is mostly slack.
  VersionedTable vt("V1", TwoCol());
  for (int64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(vt.Insert(Tuple{i, i * 3}).ok());
  }
  for (int64_t i = 100; i < 4000; ++i) {
    ASSERT_TRUE(vt.Delete(Tuple{i, i * 3}).ok());
  }
  TableVersion bloated = vt.Seal();
  ASSERT_GT(bloated.chunks->size(),
            IdealChunkCount(bloated.distinct, 64));

  TableVersion squashed = BuildSquashedTableVersion(bloated, 64);
  EXPECT_EQ(squashed.chunks->size(), IdealChunkCount(bloated.distinct, 64));
  EXPECT_EQ(squashed.distinct, bloated.distinct);
  EXPECT_EQ(squashed.total_count, bloated.total_count);
  EXPECT_TRUE(squashed.Materialize().ContentsEqual(bloated.Materialize()));
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(squashed.CountOf(Tuple{i, i * 3}), 1);
  }
}

/// --- Store apply primitives ---

/// A retain-all store with `commits` single-row commits against V1.
VersionedStore MakeCommittedStore(int64_t commits) {
  VersionedStore store(static_cast<size_t>(commits));
  MVC_CHECK(store.CreateTable("V1", TwoCol()).ok());
  VersionedTable* table = *store.GetTable("V1");
  store.Commit(0);
  for (int64_t c = 1; c <= commits; ++c) {
    MVC_CHECK(table->Insert(Tuple{c, c * 7}).ok());
    store.Commit(c);
  }
  return store;
}

TEST(CollapseVersionsTest, DropsVictimsSkipsLatestAndPinned) {
  VersionedStore store = MakeCommittedStore(10);
  SnapshotHandle pin = *store.AcquireSnapshotAt(5);

  CompactionApplyResult r = store.CollapseVersions({3, 5, 10, 777});
  EXPECT_EQ(r.versions_collapsed, 1u);  // only 3
  EXPECT_EQ(r.versions_skipped, 3u);    // pinned 5, latest 10, absent 777
  EXPECT_FALSE(store.AcquireSnapshotAt(3).ok());
  EXPECT_TRUE(store.AcquireSnapshotAt(5).ok());
  EXPECT_TRUE(store.AcquireSnapshotAt(10).ok());

  // The collapsed commit reports the GC error class readers understand.
  auto gone = store.AcquireSnapshotAt(3);
  EXPECT_TRUE(gone.status().IsNotFound());
  EXPECT_NE(gone.status().ToString().find("garbage-collected"),
            std::string::npos);

  // Unpinning makes 5 collapsible on the next pass.
  pin.Release();
  r = store.CollapseVersions({5});
  EXPECT_EQ(r.versions_collapsed, 1u);
  EXPECT_FALSE(store.AcquireSnapshotAt(5).ok());
}

TEST(CollapseVersionsTest, ReclaimsResidentBytes) {
  VersionedStore store = MakeCommittedStore(200);
  const size_t before = store.ResidentChunkBytes();
  std::vector<int64_t> victims;
  for (int64_t c = 1; c < 200; ++c) {
    if (c % 16 != 0) victims.push_back(c);
  }
  CompactionApplyResult r = store.CollapseVersions(victims);
  EXPECT_EQ(r.versions_collapsed, victims.size());
  EXPECT_GT(r.bytes_reclaimed, 0u);
  EXPECT_LT(store.ResidentChunkBytes(), before);
}

TEST(SwapCompactedTableTest, SwapsInPlaceAndRejectsMismatch) {
  VersionedStore store = MakeCommittedStore(10);
  SnapshotHandle before = *store.AcquireSnapshotAt(6);
  Table flat_before = *before.MaterializeTable("V1");

  const TableVersion* source = before.version().Find("V1");
  ASSERT_NE(source, nullptr);
  TableVersion squashed = BuildSquashedTableVersion(*source, 64);
  auto r = store.SwapCompactedTable(6, squashed);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->swapped);

  // The handle acquired before the swap still reads the old version,
  // byte for byte; a fresh handle reads identical logical contents.
  EXPECT_TRUE(before.MaterializeTable("V1")->ContentsEqual(flat_before));
  SnapshotHandle after = *store.AcquireSnapshotAt(6);
  EXPECT_TRUE(after.MaterializeTable("V1")->ContentsEqual(flat_before));

  // A replacement with different contents is refused.
  TableVersion bogus = squashed;
  bogus.distinct += 1;
  EXPECT_TRUE(store.SwapCompactedTable(6, bogus).status().IsInvalidArgument());
  EXPECT_TRUE(
      store.SwapCompactedTable(777, squashed).status().IsNotFound());
}

/// --- Randomized pinned-snapshot byte-identity property ---
///
/// Drive a store with random deltas, pin random versions along the way
/// (recording their flattened contents at pin time), and run the tiered
/// policy's plan/apply loop the way the warehouse does. No matter what
/// the compactor collapsed or squashed, every pinned handle must
/// materialize exactly the bytes it pinned.
TEST(CompactionPropertyTest, PinnedSnapshotsSurviveCompactionByteIdentical) {
  Rng rng(20260808);
  VersionedStore store(400);
  ASSERT_TRUE(store.CreateTable("V1", TwoCol()).ok());
  VersionedTable* table = *store.GetTable("V1");
  store.Commit(0);

  TieredCompactionOptions opts;
  opts.hot_window = 8;
  opts.max_specs = 8;
  opts.max_victims_per_spec = 32;
  TieredCompactionPolicy policy(opts);

  std::vector<std::pair<SnapshotHandle, Table>> pinned;
  std::vector<int64_t> live_keys;
  int64_t next_key = 0;

  auto apply_spec = [&](const CompactionSpec& spec) {
    if (spec.kind == CompactionKind::kCollapseVersions) {
      store.CollapseVersions(spec.victims);
      return;
    }
    auto handle = store.AcquireSnapshotAt(spec.commit_id);
    if (!handle.ok()) return;  // raced a collapse; best-effort
    const TableVersion* source = handle->version().Find(spec.table);
    ASSERT_NE(source, nullptr);
    TableVersion rebuilt =
        BuildSquashedTableVersion(*source, opts.rows_per_chunk);
    auto swap = store.SwapCompactedTable(spec.commit_id, std::move(rebuilt));
    (void)swap;  // best-effort: a raced pin is fine
  };

  for (int64_t c = 1; c <= 400; ++c) {
    TableDelta delta;
    delta.target = "V1";
    const int inserts = 1 + static_cast<int>(rng.engine()() % 3);
    for (int i = 0; i < inserts; ++i) {
      delta.Add(Tuple{next_key, next_key * 7}, 1);
      live_keys.push_back(next_key);
      ++next_key;
    }
    while (live_keys.size() > 40) {
      const size_t at = rng.engine()() % live_keys.size();
      const int64_t key = live_keys[at];
      live_keys.erase(live_keys.begin() + static_cast<ptrdiff_t>(at));
      delta.Add(Tuple{key, key * 7}, -1);
    }
    ASSERT_TRUE(table->ApplyDelta(delta).ok());
    store.Commit(c);

    if (rng.engine()() % 10 == 0) {
      SnapshotHandle handle = store.AcquireSnapshot();
      Table flat = *handle.MaterializeTable("V1");
      pinned.emplace_back(std::move(handle), std::move(flat));
    }
    if (c % 8 == 0) {
      for (const CompactionSpec& spec :
           policy.Plan(store.ComputeStats(1024))) {
        apply_spec(spec);
      }
    }
  }

  ASSERT_GT(pinned.size(), 10u);
  for (const auto& [handle, expected] : pinned) {
    Table now = *handle.MaterializeTable("V1");
    EXPECT_TRUE(now.ContentsEqual(expected))
        << "pinned commit " << handle.commit_id()
        << " changed under compaction";
  }
  // Compaction actually ran: history was thinned below the full window.
  EXPECT_LT(store.versions_live(), 400u);
}

/// --- CompactorProcess scheduling on SimRuntime ---

/// Rolling-window commit driver against the warehouse actor.
class CompactBenchDriver : public Process {
 public:
  CompactBenchDriver(std::string name, ProcessId warehouse, int64_t commits)
      : Process(std::move(name)), warehouse_(warehouse), commits_(commits) {}

  void OnStart() override {
    for (int64_t i = 1; i <= commits_; ++i) {
      auto msg = std::make_unique<WarehouseTxnMsg>();
      msg->txn.txn_id = i;
      msg->txn.views = {0};
      ActionList al;
      al.view = 0;
      al.delta.target = "V1";
      al.delta.Add(Tuple{i, i * 7}, 1);
      if (i > 32) al.delta.Add(Tuple{i - 32, (i - 32) * 7}, -1);
      msg->txn.actions = {al};
      SendAfter(warehouse_, std::move(msg), i * 20);
    }
  }

  void OnMessage(ProcessId, MessagePtr msg) override {
    MVC_CHECK(msg->kind == Message::Kind::kTxnCommitted);
    ++committed_;
  }

  ProcessId warehouse_;
  int64_t commits_;
  int64_t committed_ = 0;
};

TEST(CompactorProcessTest, SchedulesBoundedInflightAndDrains) {
  static const IdRegistry* registry = [] {
    auto* r = new IdRegistry();
    r->InternViews({"V1"});
    return r;
  }();

  SimRuntime runtime(7);
  WarehouseOptions options;
  options.max_retained_versions = 600;
  WarehouseProcess warehouse("warehouse", options);
  warehouse.SetRegistry(registry);
  ASSERT_TRUE(warehouse.CreateView("V1", TwoCol()).ok());
  ProcessId wpid = runtime.Register(&warehouse);

  CompactionConfig config;
  config.enabled = true;
  config.tiered.hot_window = 8;
  config.stats_every_commits = 4;
  config.max_inflight = 2;
  CompactorProcess compactor("compactor", config);
  ProcessId cpid = runtime.Register(&compactor);
  compactor.SetWarehouse(wpid);
  warehouse.SetCompactor(cpid, config.stats_every_commits,
                         config.max_version_detail);

  CompactBenchDriver driver("driver", wpid, 500);
  runtime.Register(&driver);
  runtime.Run();

  EXPECT_EQ(driver.committed_, 500);
  const CompactorProcess::Stats& stats = compactor.stats();
  EXPECT_GT(stats.plans, 0);
  EXPECT_GT(stats.merges_applied, 0);
  EXPECT_GT(stats.versions_collapsed, 0);
  EXPECT_LE(stats.peak_inflight, config.max_inflight);
  EXPECT_EQ(compactor.inflight(), 0u) << "work left in flight at quiesce";
  EXPECT_EQ(compactor.pending(), 0u);
  // Retention was actually thinned: far fewer live versions than commits.
  EXPECT_LT(warehouse.store().versions_live(), 300u);
}

TEST(CompactorProcessTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](uint64_t seed) {
    static const IdRegistry* registry = [] {
      auto* r = new IdRegistry();
      r->InternViews({"V1"});
      return r;
    }();
    SimRuntime runtime(seed);
    WarehouseOptions options;
    options.max_retained_versions = 300;
    WarehouseProcess warehouse("warehouse", options);
    warehouse.SetRegistry(registry);
    MVC_CHECK(warehouse.CreateView("V1", TwoCol()).ok());
    ProcessId wpid = runtime.Register(&warehouse);
    CompactionConfig config;
    config.enabled = true;
    config.tiered.hot_window = 4;
    config.stats_every_commits = 4;
    CompactorProcess compactor("compactor", config);
    ProcessId cpid = runtime.Register(&compactor);
    compactor.SetWarehouse(wpid);
    warehouse.SetCompactor(cpid, config.stats_every_commits,
                           config.max_version_detail);
    CompactBenchDriver driver("driver", wpid, 200);
    runtime.Register(&driver);
    runtime.Run();
    return std::make_pair(compactor.stats().versions_collapsed,
                          compactor.stats().merges_applied);
  };
  EXPECT_EQ(run(3), run(3)) << "same seed, same compaction history";
}

/// --- End to end: WarehouseSystem with compaction enabled ---

TEST(CompactionSystemTest, GeneratedWorkloadStaysConsistentUnderCompaction) {
  auto build = [](bool record_snapshots) {
    WorkloadSpec spec;
    spec.num_transactions = 60;
    spec.seed = 9;
    auto config = GenerateScenario(spec);
    MVC_CHECK(config.ok());
    config->compaction.enabled = true;
    config->compaction.tiered.hot_window = 4;
    config->compaction.stats_every_commits = 2;
    config->warehouse.max_retained_versions = 200;
    config->collect_metrics = true;
    config->record_snapshots = record_snapshots;
    return WarehouseSystem::Build(std::move(*config));
  };
  auto system = build(/*record_snapshots=*/true);
  ASSERT_TRUE(system.ok()) << system.status();
  (*system)->Run();

  // The oracle pins nothing: the oracle-checked run ends with exactly
  // the live versions of the same seed run without content checks.
  auto unchecked = build(/*record_snapshots=*/false);
  ASSERT_TRUE(unchecked.ok()) << unchecked.status();
  (*unchecked)->Run();
  EXPECT_EQ((*system)->warehouse().store().versions_live(),
            (*unchecked)->warehouse().store().versions_live());

  // Compaction ran and its counters surfaced in the metrics snapshot.
  ASSERT_NE((*system)->compactor(), nullptr);
  EXPECT_GT((*system)->compactor()->stats().merges_applied, 0);
  EXPECT_GT((*system)->compactor()->stats().versions_collapsed, 0);
  const obs::MetricsSnapshot snap = (*system)->MetricsSnapshot();
  const auto* merges = obs::FindCounter(snap, "compact.merges_total");
  ASSERT_NE(merges, nullptr);
  EXPECT_GT(merges->value, 0);

  // The maintenance pipeline is untouched by background compaction.
  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete((*system)->recorder()).ok())
      << checker.CheckComplete((*system)->recorder());
}

TEST(CompactionSystemTest, NoopPolicyRetainsFullWindow) {
  WorkloadSpec spec;
  spec.num_transactions = 40;
  spec.seed = 9;
  auto config = GenerateScenario(spec);
  ASSERT_TRUE(config.ok());
  config->compaction.enabled = true;
  config->compaction.policy = CompactionPolicyKind::kNoop;
  config->compaction.stats_every_commits = 2;
  config->warehouse.max_retained_versions = 200;

  auto system = WarehouseSystem::Build(std::move(*config));
  ASSERT_TRUE(system.ok()) << system.status();
  (*system)->Run();
  ASSERT_NE((*system)->compactor(), nullptr);
  EXPECT_GT((*system)->compactor()->stats().plans, 0);
  EXPECT_EQ((*system)->compactor()->stats().merges_applied, 0);
}

}  // namespace
}  // namespace mvc
