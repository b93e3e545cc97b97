// Reader-visible consistency: what a concurrent application querying
// the warehouse actually observes. Under SPA every atomic multi-view
// read maps to some source state; with uncoordinated (pass-through)
// maintenance some reads expose the Example 1 inconsistency window.

#include <gtest/gtest.h>

#include "net/sim_runtime.h"
#include "query/evaluator.h"
#include "query/relevance.h"
#include "system/warehouse_system.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

/// True if the observed view contents equal (V1(ss), V2(ss), ...) for
/// some consistent source state ss of a schedule equivalent to the
/// recorded one — i.e. some subset of the updates that is closed under
/// the dependent-update (shared-view) order. The scenarios here have a
/// handful of updates, so subsets are enumerated exhaustively.
bool ObservationMapsToSourceState(
    const WarehouseSystem& system,
    const WarehouseReader::Observation& obs) {
  const std::vector<BoundView>& views = system.bound_views();
  const auto& updates = system.recorder().updates();
  const size_t n = updates.size();
  MVC_CHECK(n <= 12) << "subset enumeration only suits small scenarios";

  // REL per update (pruning on, matching the default integrator config).
  std::vector<std::set<std::string>> rel(n);
  for (size_t i = 0; i < n; ++i) {
    for (const BoundView& view : views) {
      for (const Update& u : updates[i].txn.updates) {
        if (UpdateIsRelevant(view, u)) {
          rel[i].insert(view.name());
          break;
        }
      }
    }
  }
  auto overlaps = [&](size_t a, size_t b) {
    for (const std::string& v : rel[a]) {
      if (rel[b].count(v) > 0) return true;
    }
    return false;
  };

  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    // Legality: a member's earlier dependent updates are members too.
    bool legal = true;
    for (size_t b = 0; b < n && legal; ++b) {
      if (!(mask & (1u << b))) continue;
      for (size_t a = 0; a < b && legal; ++a) {
        if (!(mask & (1u << a)) && overlaps(a, b)) legal = false;
      }
    }
    if (!legal) continue;

    Catalog base = system.initial_base().Clone();
    bool applied_ok = true;
    for (size_t i = 0; i < n && applied_ok; ++i) {
      if (!(mask & (1u << i))) continue;
      for (const Update& upd : updates[i].txn.updates) {
        auto table = base.GetTable(upd.relation);
        MVC_CHECK(table.ok());
        if (!ViewEvaluator::UpdateToBaseDelta(upd).ApplyTo(*table).ok()) {
          applied_ok = false;  // subset not replayable in id order
          break;
        }
      }
    }
    if (!applied_ok) continue;

    TableProviderFn provider = CatalogProvider(&base);
    bool match = true;
    for (size_t v = 0; v < views.size() && match; ++v) {
      auto expected = ViewEvaluator::Evaluate(views[v], provider);
      MVC_CHECK(expected.ok());
      match = expected->ContentsEqual(obs.snapshots[v]);
    }
    if (match) return true;
  }
  return false;
}

std::vector<TimeMicros> DenseReadSchedule() {
  std::vector<TimeMicros> read_at;
  for (TimeMicros t = 500; t <= 20000; t += 250) read_at.push_back(t);
  return read_at;
}

TEST(ReaderTest, UnderSpaEveryReadMapsToASourceState) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SystemConfig config = Example3Scenario();
    config.latency = LatencyModel::Uniform(500, 3000);
    config.vm_options.delta_cost = 1000;
    config.seed = seed;
    auto system = WarehouseSystem::Build(std::move(config));
    ASSERT_TRUE(system.ok());
    WarehouseReader* reader =
        (*system)->AttachReader({"V1", "V2", "V3"}, DenseReadSchedule());
    (*system)->Run();

    ASSERT_FALSE(reader->observations().empty());
    for (const auto& obs : reader->observations()) {
      EXPECT_TRUE(ObservationMapsToSourceState(**system, obs))
          << "seed " << seed << ": read at t=" << obs.at
          << " saw a state matching no source state";
    }
  }
}

TEST(ReaderTest, WithoutCoordinationSomeReadObservesInconsistency) {
  bool observed_violation = false;
  for (uint64_t seed = 1; seed <= 30 && !observed_violation; ++seed) {
    SystemConfig config = Example3Scenario();
    config.auto_algorithm = false;
    config.merge.algorithm = MergeAlgorithm::kPassThrough;
    config.latency = LatencyModel::Uniform(500, 8000);
    config.vm_options.delta_cost = 2000;
    config.seed = seed;
    auto system = WarehouseSystem::Build(std::move(config));
    ASSERT_TRUE(system.ok());
    WarehouseReader* reader =
        (*system)->AttachReader({"V1", "V2", "V3"}, DenseReadSchedule());
    (*system)->Run();
    for (const auto& obs : reader->observations()) {
      if (!ObservationMapsToSourceState(**system, obs)) {
        observed_violation = true;
        break;
      }
    }
  }
  EXPECT_TRUE(observed_violation)
      << "a dense reader should catch the inconsistency window under "
         "uncoordinated maintenance for some seed";
}

TEST(ReaderTest, SnapshotReportsCommitCountAndRequestedViews) {
  SystemConfig config = Table1Scenario();
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  WarehouseReader* reader =
      (*system)->AttachReader({"V1"}, {100, 50000});
  (*system)->Run();
  ASSERT_EQ(reader->observations().size(), 2u);
  EXPECT_EQ(reader->observations()[0].as_of_commit, 0);
  EXPECT_EQ(reader->observations()[0].snapshots.size(), 1u);
  EXPECT_TRUE(reader->observations()[0].snapshots[0].empty());
  EXPECT_EQ(reader->observations()[1].as_of_commit, 1);
  EXPECT_EQ(reader->observations()[1].snapshots[0].CountOf(Tuple{1, 2, 3}),
            1);
}

TEST(ReaderTest, EmptyViewListReadsAllViews) {
  SystemConfig config = Table1Scenario();
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  WarehouseReader* reader = (*system)->AttachReader({}, {50000});
  (*system)->Run();
  ASSERT_EQ(reader->observations().size(), 1u);
  EXPECT_EQ(reader->observations()[0].snapshots.size(), 2u);  // V1, V2
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

/// One-shot time-travel reader.
class TimeTravelReader : public Process {
 public:
  TimeTravelReader(std::string name, ProcessId warehouse, TimeMicros at,
                   int64_t as_of)
      : Process(std::move(name)), warehouse_(warehouse), at_(at),
        as_of_(as_of) {}
  void OnStart() override {
    ScheduleSelf(std::make_unique<TickMsg>(), at_);
  }
  void OnMessage(ProcessId, MessagePtr msg) override {
    if (msg->kind == Message::Kind::kTick) {
      auto read = std::make_unique<ReadViewsMsg>();
      read->as_of_commit = as_of_;
      Send(warehouse_, std::move(read));
      return;
    }
    ASSERT_EQ(msg->kind, Message::Kind::kViewsSnapshot);
    answer = std::make_unique<ViewsSnapshotMsg>(
        std::move(*static_cast<ViewsSnapshotMsg*>(msg.get())));
  }
  ProcessId warehouse_;
  TimeMicros at_;
  int64_t as_of_;
  std::unique_ptr<ViewsSnapshotMsg> answer;
};

TEST(TimeTravelTest, HistoricalReadServesPastState) {
  // Example 3 commits three times; a late read as-of commit 1 must see
  // the state right after the first commit, not the final one.
  SystemConfig config = Example3Scenario();
  config.warehouse.max_retained_versions = 8;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());

  TimeTravelReader reader("tt-reader", (*system)->warehouse().id(),
                          /*at=*/200000, /*as_of=*/1);
  (*system)->runtime().Register(&reader);
  (*system)->Run();

  ASSERT_NE(reader.answer, nullptr);
  EXPECT_EQ(reader.answer->as_of_commit, 1);
  // The oracle's replayed state after the first commit is the ground
  // truth.
  ASSERT_GE((*system)->recorder().commits().size(), 2u);
  Catalog expected;
  Status replayed = (*system)->MakeChecker().ReplayWarehouseStates(
      (*system)->recorder(), [&](int64_t commits, const Catalog& views) {
        if (commits == 1) expected = views.Clone();
        return Status::OK();
      }).status();
  ASSERT_TRUE(replayed.ok()) << replayed;
  std::vector<std::string> names = expected.TableNames();
  std::vector<Table> tables = reader.answer->TakeTables();
  ASSERT_EQ(tables.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(tables[i].ContentsEqual(**expected.GetTable(names[i])))
        << names[i];
  }
}

TEST(TimeTravelTest, CommitZeroIsTheInitialState) {
  SystemConfig config = Table1Scenario();
  config.warehouse.max_retained_versions = 4;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  TimeTravelReader reader("tt-reader", (*system)->warehouse().id(),
                          /*at=*/100000, /*as_of=*/0);
  (*system)->runtime().Register(&reader);
  (*system)->Run();
  ASSERT_NE(reader.answer, nullptr);
  // Initially both views are empty.
  std::vector<Table> tables = reader.answer->TakeTables();
  EXPECT_FALSE(tables.empty());
  for (const Table& t : tables) {
    EXPECT_TRUE(t.empty());
  }
}

TEST(TimeTravelTest, GcdVersionReadReturnsCleanError) {
  // Example 3 commits three times; with only the last version retained,
  // a late read as-of commit 0 finds its version garbage-collected. The
  // MVCC read path answers with a clean error message — not a crash,
  // and not a stale or empty snapshot.
  SystemConfig config = Example3Scenario();
  config.warehouse.max_retained_versions = 1;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  TimeTravelReader reader("tt-reader", (*system)->warehouse().id(),
                          /*at=*/200000, /*as_of=*/0);
  (*system)->runtime().Register(&reader);
  (*system)->Run();
  ASSERT_NE(reader.answer, nullptr);
  EXPECT_FALSE(reader.answer->ok());
  EXPECT_NE(reader.answer->error.find("garbage-collected"),
            std::string::npos)
      << reader.answer->error;
  EXPECT_EQ(reader.answer->as_of_commit, 0);
  // No snapshot payload of any kind rides along with the error.
  EXPECT_FALSE(reader.answer->handle.valid());
  EXPECT_TRUE(reader.answer->view_names.empty());
  EXPECT_TRUE(reader.answer->TakeTables().empty());
}

TEST(TimeTravelTest, LiveHandlePinsAnEvictedVersion) {
  // A reader that acquired a snapshot before its version fell out of
  // the retained window can still materialize it: the handle, not the
  // window, owns the chunks. versions_live/watermark track the pin.
  SystemConfig config = Example3Scenario();
  config.warehouse.max_retained_versions = 1;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  // Read commit 0 *early*, before later commits evict it.
  TimeTravelReader reader("tt-reader", (*system)->warehouse().id(),
                          /*at=*/1, /*as_of=*/0);
  (*system)->runtime().Register(&reader);
  (*system)->Run();
  ASSERT_NE(reader.answer, nullptr);
  ASSERT_TRUE(reader.answer->ok());
  ASSERT_TRUE(reader.answer->handle.valid());

  const VersionedStore& store = (*system)->warehouse().store();
  ASSERT_GE(store.latest_commit(), 2);
  // The handle pins commit 0 past its eviction from the window: the
  // version still materializes in full (V1, V2, V3), no stale reads.
  EXPECT_EQ(store.watermark(), 0);
  std::vector<Table> tables = reader.answer->TakeTables();
  EXPECT_EQ(tables.size(), 3u);

  // Releasing the last reference lets the watermark advance.
  reader.answer->handle.Release();
  EXPECT_GT(store.watermark(), 0);
}

/// Swallows every message: a crashed warehouse as seen by its readers.
class BlackHoleProcess : public Process {
 public:
  using Process::Process;
  void OnMessage(ProcessId, MessagePtr) override {}
};

TEST(ReaderInFlightTest, TtlAgesOutRequestsWhoseResponsesWereLost) {
  // 20 reads against a warehouse that never answers. With a 3ms TTL and
  // 1ms arrivals, each arrival first evicts everything older than the
  // TTL, so the map stays bounded at the TTL window instead of growing
  // one entry per lost request forever.
  SimRuntime runtime(1);
  BlackHoleProcess hole("dead-warehouse");
  ProcessId hid = runtime.Register(&hole);
  std::vector<TimeMicros> read_at;
  for (TimeMicros t = 1000; t <= 20000; t += 1000) read_at.push_back(t);
  WarehouseReader reader("reader", {}, read_at);
  runtime.Register(&reader);
  reader.SetWarehouse(hid);
  reader.SetInFlightLimits(/*ttl_us=*/3000, /*max_size=*/1024);
  runtime.Run();
  // At the last arrival (t=20000) only the sends from t in (17000,
  // 20000] survive the TTL sweep: three old entries plus the new one.
  EXPECT_EQ(reader.in_flight_size(), 4u);
  EXPECT_EQ(reader.in_flight_expired(), 16);
}

TEST(ReaderInFlightTest, HardCapBoundsTheMapWhenTtlIsOff) {
  SimRuntime runtime(1);
  BlackHoleProcess hole("dead-warehouse");
  ProcessId hid = runtime.Register(&hole);
  std::vector<TimeMicros> read_at;
  for (TimeMicros t = 1000; t <= 20000; t += 1000) read_at.push_back(t);
  WarehouseReader reader("reader", {}, read_at);
  runtime.Register(&reader);
  reader.SetWarehouse(hid);
  reader.SetInFlightLimits(/*ttl_us=*/0, /*max_size=*/5);
  runtime.Run();
  // Oldest-first eviction keeps the newest five; the other fifteen
  // count as expired.
  EXPECT_EQ(reader.in_flight_size(), 5u);
  EXPECT_EQ(reader.in_flight_expired(), 15);
}

TEST(ReaderInFlightTest, AnsweredRequestsRetireAndRecordLatency) {
  // Against a live warehouse nothing leaks and nothing is aged out: the
  // single-lookup response path retires each entry as it is answered.
  SystemConfig config = Table1Scenario();
  config.collect_metrics = true;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  WarehouseReader* reader =
      (*system)->AttachReader({"V1"}, {100, 200, 50000});
  (*system)->Run();
  EXPECT_EQ(reader->observations().size(), 3u);
  EXPECT_EQ(reader->in_flight_size(), 0u);
  EXPECT_EQ(reader->in_flight_expired(), 0);
  obs::MetricsSnapshot metrics = (*system)->MetricsSnapshot();
  EXPECT_EQ(obs::SumHistogramCounts(metrics, "read.latency_us"), 3);
}

TEST(GoldenTest, MvccObservationsMatchCloneHistoryOnExample3) {
  // Every MVCC observation on a dense read schedule renders
  // byte-identically (canonical ToString) to the oracle's flat replay of
  // the committed action lists at the observation's as_of_commit.
  SystemConfig config = Example3Scenario();
  config.warehouse.max_retained_versions = 8;
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  WarehouseReader* reader =
      (*system)->AttachReader({"V1", "V2", "V3"}, DenseReadSchedule());
  (*system)->Run();

  std::vector<std::vector<std::string>> rendered;
  Status replayed = (*system)->MakeChecker().ReplayWarehouseStates(
      (*system)->recorder(), [&](int64_t, const Catalog& views) {
        std::vector<std::string> tables;
        for (const char* name : {"V1", "V2", "V3"}) {
          MVC_ASSIGN_OR_RETURN(const Table* t, views.GetTable(name));
          tables.push_back(t->ToString());
        }
        rendered.push_back(std::move(tables));
        return Status::OK();
      }).status();
  ASSERT_TRUE(replayed.ok()) << replayed;

  ASSERT_FALSE(reader->observations().empty());
  for (size_t i = 0; i < reader->observations().size(); ++i) {
    const auto& obs = reader->observations()[i];
    ASSERT_TRUE(obs.ok()) << obs.error;
    ASSERT_GE(obs.as_of_commit, 0);
    ASSERT_LT(static_cast<size_t>(obs.as_of_commit), rendered.size());
    const std::vector<std::string>& want =
        rendered[static_cast<size_t>(obs.as_of_commit)];
    ASSERT_EQ(obs.snapshots.size(), want.size());
    for (size_t v = 0; v < want.size(); ++v) {
      EXPECT_EQ(obs.snapshots[v].ToString(), want[v])
          << "observation " << i << ", view " << v;
    }
  }
}

TEST(ReaderTest, UnknownViewReadGetsCleanError) {
  // A read naming a ViewId the registry never minted, or a minted view
  // the warehouse holds no table for, is answered with an error — not an
  // abort on the warehouse actor.
  SimRuntime runtime(1);
  IdRegistry registry;
  registry.InternViews({"V1", "Ghost"});
  WarehouseProcess warehouse("warehouse");
  warehouse.SetRegistry(&registry);
  ASSERT_TRUE(warehouse.CreateView("V1", Schema::AllInt64({"A"})).ok());
  const ProcessId wpid = runtime.Register(&warehouse);
  WarehouseReader unminted("unminted", {0, 99}, {100});
  WarehouseReader ghost("ghost", {1}, {100});
  for (WarehouseReader* reader : {&unminted, &ghost}) {
    runtime.Register(reader);
    reader->SetWarehouse(wpid);
  }
  runtime.Run();
  ASSERT_EQ(unminted.observations().size(), 1u);
  EXPECT_EQ(unminted.observations()[0].error, "unknown view id 99");
  EXPECT_TRUE(unminted.observations()[0].snapshots.empty());
  ASSERT_EQ(ghost.observations().size(), 1u);
  EXPECT_EQ(ghost.observations()[0].error,
            "view 'Ghost' is not in the snapshot");
}

TEST(ReaderTest, UnknownViewQueryGetsCleanError) {
  auto system = WarehouseSystem::Build(Table1Scenario());
  ASSERT_TRUE(system.ok());
  WarehouseReader reader("unminted", {99}, {100});
  ReaderQueryOptions query;
  query.enabled = true;
  query.column = "A";
  reader.SetQueryOptions(query, /*seed=*/1);
  (*system)->runtime().Register(&reader);
  reader.SetWarehouse((*system)->warehouse().id());
  (*system)->Run();
  ASSERT_EQ(reader.query_observations().size(), 1u);
  const auto& obs = reader.query_observations()[0];
  EXPECT_EQ(obs.error, "unknown view id 99");
  EXPECT_EQ(obs.as_of_commit, -1);
  EXPECT_TRUE(obs.rows.empty());
}

}  // namespace
}  // namespace mvc
