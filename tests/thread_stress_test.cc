// ThreadRuntime stress tests aimed at the thread sanitizer.
//
// These run hot loops over the real-thread runtime — many short Run()
// cycles (each one exercises startup, quiescence detection, and the
// teardown wakeup path) plus full warehouse scenarios with contended
// channels — so TSan gets a wide set of interleavings to inspect.
// They are only registered when the tree is built with
// MVC_SANITIZE=thread (the `tsan` preset); see tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "consistency/checker.h"
#include "net/protocol.h"
#include "net/thread_runtime.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace mvc {
namespace {

/// Forwards each tick along a ring of processes until its tag hits zero,
/// so every delivery re-arms another contended channel.
class RingHop : public Process {
 public:
  RingHop(std::string name, int ring_size, std::atomic<int64_t>* hops)
      : Process(std::move(name)), ring_size_(ring_size), hops_(hops) {}

  void OnMessage(ProcessId, MessagePtr msg) override {
    auto* tick = static_cast<TickMsg*>(msg.get());
    hops_->fetch_add(1, std::memory_order_relaxed);
    if (tick->tag <= 0) return;
    auto next = std::make_unique<TickMsg>();
    next->tag = tick->tag - 1;
    Send((id() + 1) % ring_size_, std::move(next));
  }

 private:
  int ring_size_;
  std::atomic<int64_t>* hops_;
};

/// Seeds the ring with several concurrent tokens at start.
class RingSeeder : public RingHop {
 public:
  RingSeeder(std::string name, int ring_size, int tokens, int64_t hops_each,
             std::atomic<int64_t>* hops)
      : RingHop(std::move(name), ring_size, hops),
        tokens_(tokens),
        hops_each_(hops_each) {}

  void OnStart() override {
    for (int t = 0; t < tokens_; ++t) {
      auto tick = std::make_unique<TickMsg>();
      tick->tag = hops_each_;
      Send(id(), std::move(tick));
    }
  }

 private:
  int tokens_;
  int64_t hops_each_;
};

// Many tokens circulating a ring: every process is simultaneously a
// sender and a receiver, so mailbox locks, the dispatcher heap, and the
// in-flight counter all stay contended until quiescence.
TEST(ThreadStressTest, TokenRingUnderContention) {
  constexpr int kRing = 8;
  constexpr int kTokens = 6;
  constexpr int64_t kHops = 200;
  std::atomic<int64_t> hops{0};

  ThreadRuntime runtime(7, LatencyModel::Uniform(0, 50));
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < kRing; ++i) {
    if (i == 0) {
      procs.push_back(std::make_unique<RingSeeder>("seed", kRing, kTokens,
                                                   kHops, &hops));
    } else {
      procs.push_back(
          std::make_unique<RingHop>("hop" + std::to_string(i), kRing, &hops));
    }
    runtime.Register(procs.back().get());
  }
  runtime.Run();
  EXPECT_EQ(hops.load(), kTokens * (kHops + 1));
}

// Repeated short Run() cycles: each one walks the full start / quiesce /
// teardown sequence, which is where the stopping_ handshake with the
// worker condition variables lives.
TEST(ThreadStressTest, RepeatedRunCyclesExerciseTeardown) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> hops{0};
    ThreadRuntime runtime(static_cast<uint64_t>(round + 1));
    RingSeeder seeder("seed", 3, 2, 5, &hops);
    RingHop h1("hop1", 3, &hops);
    RingHop h2("hop2", 3, &hops);
    runtime.Register(&seeder);
    runtime.Register(&h1);
    runtime.Register(&h2);
    runtime.Run();
    EXPECT_EQ(hops.load(), 2 * 6);
  }
}

// Full warehouse pipeline on real threads: sources, integrator, view
// managers, and the merge process all run concurrently, and the MVC
// checker must still pass at the end.
TEST(ThreadStressTest, GeneratedWorkloadOnThreadsIsConsistent) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 25;
    spec.num_views = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->latency = LatencyModel::Uniform(0, 200);
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok());
    (*system)->Run();
    ConsistencyChecker checker = (*system)->MakeChecker();
    EXPECT_TRUE(checker.CheckComplete((*system)->recorder()).ok())
        << checker.CheckComplete((*system)->recorder());
  }
}

// MVCC read path under real-thread contention: a pool of Poisson
// readers hammers the warehouse while maintenance commits run, so TSan
// watches chunk shared_ptr refcounts cross threads (handles released on
// reader threads while the warehouse seals new versions).
TEST(ThreadStressTest, ReaderPoolSnapshotsAreNeverTornOnThreads) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 20;
    spec.num_views = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->latency = LatencyModel::Uniform(0, 200);
    config->warehouse.max_retained_versions = 4;
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok());
    ReaderPoolOptions pool;
    pool.num_readers = 4;
    pool.reads_per_reader = 12;
    pool.mean_interval_us = 500.0;
    pool.seed = seed;
    std::vector<WarehouseReader*> readers =
        (*system)->AttachReaderPool(pool);
    (*system)->Run();
    const size_t views = (*system)->bound_views().size();
    for (const WarehouseReader* reader : readers) {
      ASSERT_EQ(reader->observations().size(), pool.reads_per_reader);
      for (const auto& obs : reader->observations()) {
        ASSERT_TRUE(obs.ok()) << obs.error;
        EXPECT_EQ(obs.snapshots.size(), views);
      }
    }
  }
}

// Background compaction racing the read path on real threads: the
// compactor collapses and squash-rebuilds versions (rebuilds run on its
// own thread against sealed chunks) while a reader pool acquires and
// releases snapshot handles and commits keep sealing new versions. TSan
// watches the chunk refcounts cross all three thread groups; the
// observation checks prove no reader ever saw a torn or reclaimed
// snapshot.
TEST(ThreadStressTest, CompactorRacingReadersNeverTearsSnapshots) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 25;
    spec.num_views = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->latency = LatencyModel::Uniform(0, 200);
    config->warehouse.max_retained_versions = 64;
    config->compaction.enabled = true;
    config->compaction.tiered.hot_window = 2;
    config->compaction.stats_every_commits = 1;
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok());
    ReaderPoolOptions pool;
    pool.num_readers = 4;
    pool.reads_per_reader = 12;
    pool.mean_interval_us = 500.0;
    pool.seed = seed;
    std::vector<WarehouseReader*> readers =
        (*system)->AttachReaderPool(pool);
    (*system)->Run();
    const size_t views = (*system)->bound_views().size();
    for (const WarehouseReader* reader : readers) {
      ASSERT_EQ(reader->observations().size(), pool.reads_per_reader);
      for (const auto& obs : reader->observations()) {
        ASSERT_TRUE(obs.ok()) << obs.error;
        EXPECT_EQ(obs.snapshots.size(), views);
      }
    }
    ASSERT_NE((*system)->compactor(), nullptr);
    EXPECT_GT((*system)->compactor()->stats().plans, 0);
  }
}

TEST(ThreadStressTest, QueryReadersRacingCompactorGetConsistentAnswers) {
  // The serve tier under TSan: scan queries execute on pinned versions
  // while the compactor swaps squashed versions in underneath. Every
  // query must come back answered (no sheds without a budget, no
  // errors), and the response payload must be internally consistent.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 25;
    spec.num_views = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->latency = LatencyModel::Uniform(0, 200);
    config->warehouse.max_retained_versions = 64;
    config->compaction.enabled = true;
    config->compaction.tiered.hot_window = 2;
    config->compaction.stats_every_commits = 1;
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok());
    ReaderPoolOptions pool;
    pool.num_readers = 4;
    pool.reads_per_reader = 12;
    pool.mean_interval_us = 500.0;
    pool.seed = seed;
    pool.query.enabled = true;
    pool.query.zipf_theta = 0.99;
    pool.query.burst = 2;
    pool.query.column = "j";
    pool.query.key_min = 0;
    pool.query.key_max = 9;
    pool.query.range_width = 3;
    std::vector<WarehouseReader*> readers =
        (*system)->AttachReaderPool(pool);
    (*system)->Run();
    for (const WarehouseReader* reader : readers) {
      ASSERT_EQ(reader->query_observations().size(),
                pool.reads_per_reader * pool.query.burst);
      EXPECT_EQ(reader->queries_shed(), 0);
      EXPECT_EQ(reader->in_flight_size(), 0u);
      for (const auto& obs : reader->query_observations()) {
        ASSERT_TRUE(obs.ok()) << obs.error;
        EXPECT_GE(obs.as_of_commit, 0);
        int64_t total = 0;
        for (const Row& row : obs.rows) total += row.count;
        EXPECT_EQ(total, obs.matched_count);
        EXPECT_GE(obs.rows_scanned, static_cast<int64_t>(obs.rows.size()));
      }
    }
    ASSERT_NE((*system)->compactor(), nullptr);
    EXPECT_GT((*system)->compactor()->stats().plans, 0);
  }
}

// Group commit under TSan: the warehouse batches transactions into one
// versioned-store publish while a reader pool acquires snapshots and
// the compactor collapses/squashes versions underneath. Batched
// publishes leave gaps in the store's commit-id sequence, so this is
// the interleaving where a torn read would show: a reader must only
// ever see a batch-boundary state, and that state must equal the
// oracle's catalog at exactly its as_of_commit.
TEST(ThreadStressTest, GroupCommitRacingReadersAndCompactorNeverTears) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 25;
    spec.num_views = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->latency = LatencyModel::Uniform(0, 200);
    config->warehouse.max_retained_versions = 64;
    config->compaction.enabled = true;
    config->compaction.tiered.hot_window = 2;
    config->compaction.stats_every_commits = 1;
    config->ingest.group_commit.enabled = true;
    config->ingest.group_commit.max_batch = 4;
    config->ingest.group_commit.max_delay_us = 1000;
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ReaderPoolOptions pool;
    pool.num_readers = 4;
    pool.reads_per_reader = 12;
    pool.mean_interval_us = 500.0;
    pool.seed = seed;
    std::vector<WarehouseReader*> readers =
        (*system)->AttachReaderPool(pool);
    (*system)->Run();

    const ConsistencyRecorder& recorder = (*system)->recorder();
    ConsistencyChecker checker = (*system)->MakeChecker();
    EXPECT_TRUE(checker.CheckComplete(recorder).ok())
        << checker.CheckComplete(recorder);

    // Oracle state per commit count, replayed from the committed action
    // lists (commit 0: before any batch lands).
    std::vector<Catalog> states;
    Status replayed = checker.ReplayWarehouseStates(
        recorder, [&](int64_t, const Catalog& views) {
          states.push_back(views.Clone());
          return Status::OK();
        }).status();
    ASSERT_TRUE(replayed.ok()) << replayed;

    const size_t views = (*system)->bound_views().size();
    for (const WarehouseReader* reader : readers) {
      ASSERT_EQ(reader->observations().size(), pool.reads_per_reader);
      for (const auto& obs : reader->observations()) {
        ASSERT_TRUE(obs.ok()) << obs.error;
        ASSERT_EQ(obs.snapshots.size(), views);
        ASSERT_GE(obs.as_of_commit, 0);
        ASSERT_LE(obs.as_of_commit,
                  static_cast<int64_t>(recorder.commits().size()));
        for (const Table& got : obs.snapshots) {
          auto want =
              states[static_cast<size_t>(obs.as_of_commit)].GetTable(
                  got.name());
          ASSERT_TRUE(want.ok());
          EXPECT_TRUE(got.ContentsEqual(**want))
              << "seed " << seed << ": view " << got.name()
              << " torn at commit " << obs.as_of_commit;
        }
      }
    }
    ASSERT_NE((*system)->compactor(), nullptr);
    EXPECT_GT((*system)->compactor()->stats().plans, 0);
  }
}

// Paper scenario end-to-end on threads with jittered latencies.
TEST(ThreadStressTest, Table1RaceScenarioOnThreads) {
  SystemConfig config = Table1RaceScenario();
  config.use_threads = true;
  config.latency = LatencyModel::Uniform(0, 500);
  auto system = WarehouseSystem::Build(std::move(config));
  ASSERT_TRUE(system.ok());
  (*system)->Run();
  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete((*system)->recorder()).ok())
      << checker.CheckComplete((*system)->recorder());
}

// Self-maintaining group managers under TSan (src/maint/): one actor
// maintains a whole merge group from its auxiliary store while a
// reader pool acquires snapshots and the compactor squashes versions
// underneath. The manager's auxiliary tables are actor-private, so the
// only sharing is through the stock message channels — any data race
// here is a protocol bug, exactly what the instrumented build exists
// to catch. The oracle still requires full MVC at the end.
TEST(ThreadStressTest, SelfMaintainingManagersRacingReadersAndCompactor) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_transactions = 25;
    spec.num_views = 4;
    spec.max_view_width = 3;
    spec.mean_interarrival = 300;
    auto config = GenerateScenario(spec);
    ASSERT_TRUE(config.ok());
    config->use_threads = true;
    config->maint.self_maintain = true;
    config->latency = LatencyModel::Uniform(0, 200);
    config->warehouse.max_retained_versions = 64;
    config->compaction.enabled = true;
    config->compaction.tiered.hot_window = 2;
    config->compaction.stats_every_commits = 1;
    auto system = WarehouseSystem::Build(std::move(*config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ReaderPoolOptions pool;
    pool.num_readers = 4;
    pool.reads_per_reader = 12;
    pool.mean_interval_us = 500.0;
    pool.seed = seed;
    std::vector<WarehouseReader*> readers =
        (*system)->AttachReaderPool(pool);
    (*system)->Run();
    for (const WarehouseReader* reader : readers) {
      EXPECT_EQ(reader->observations().size(),
                static_cast<size_t>(pool.reads_per_reader));
    }
    ASSERT_FALSE((*system)->maint_vms().empty());
    for (const auto& vm : (*system)->maint_vms()) {
      EXPECT_GT(vm->query_rounds_avoided(), 0);
    }
    ConsistencyChecker checker = (*system)->MakeChecker();
    EXPECT_TRUE(checker.CheckComplete((*system)->recorder()).ok())
        << checker.CheckComplete((*system)->recorder());
  }
}

}  // namespace
}  // namespace mvc
