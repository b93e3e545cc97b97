// Read-path scaling: MVCC snapshot handles vs table clones.
//
// Two things are measured. First, snapshot *acquisition* is O(1) in
// table size on the MVCC path (a shared_ptr copy) while a table clone
// is O(table): the acquire cost must stay flat as the table grows 10x.
// Second, the per-read cost of a warehouse serving a pool of
// point-lookup readers — the Section 1.1 customer-inquiry pattern: look
// up a handful of keys across views in one atomic read — while
// maintenance commits run.
//
//   bench_read_scaling [--tiny] [--json[=PATH]]
//
// --tiny shrinks every dimension for CI smoke runs; --json writes
// BENCH_read.json (validated by `mvc_stats --check-bench`).

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/sim_runtime.h"
#include "storage/id_registry.h"
#include "storage/versioned_store.h"
#include "warehouse/reader.h"
#include "warehouse/warehouse.h"

namespace mvc {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start, int64_t iterations) {
  const auto elapsed = Clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(iterations);
}

Schema ViewSchema() { return Schema::AllInt64({"A", "B"}); }

/// --- Part 1: snapshot acquisition cost vs table size ---

/// MVCC: acquiring a snapshot of an N-row store is one refcount bump.
double TimeMvccAcquire(int64_t rows, int64_t iterations) {
  VersionedStore store(8);
  MVC_CHECK(store.CreateTable("V1", ViewSchema()).ok());
  VersionedTable* table = *store.GetTable("V1");
  for (int64_t i = 0; i < rows; ++i) {
    MVC_CHECK(table->Insert(Tuple{i, i * 7}).ok());
  }
  store.Commit(0);
  // Keep one handle live so acquired handles are never the last owner.
  SnapshotHandle warm = store.AcquireSnapshot();
  const auto start = Clock::now();
  int64_t sink = 0;
  for (int64_t i = 0; i < iterations; ++i) {
    SnapshotHandle handle = store.AcquireSnapshot();
    sink += handle.commit_id();
  }
  const double ns = NsSince(start, iterations);
  MVC_CHECK(sink == 0);
  return ns;
}

/// Clone baseline: every snapshot of an N-row table is a deep copy.
double TimeCloneAcquire(int64_t rows, int64_t iterations) {
  Table table("V1", ViewSchema());
  for (int64_t i = 0; i < rows; ++i) {
    MVC_CHECK(table.Insert(Tuple{i, i * 7}).ok());
  }
  const auto start = Clock::now();
  int64_t sink = 0;
  for (int64_t i = 0; i < iterations; ++i) {
    Table snapshot = table.Clone();
    sink += snapshot.NumRows();
  }
  const double ns = NsSince(start, iterations);
  MVC_CHECK(sink == rows * iterations);
  return ns;
}

/// --- Part 2: read throughput under concurrent commits ---

/// Issues `reads` atomic point-lookup reads: each observation checks a
/// few keys in the shared version without flattening it.
class LookupReader : public Process {
 public:
  LookupReader(std::string name, ProcessId warehouse,
               std::vector<TimeMicros> read_at, int64_t key_space)
      : Process(std::move(name)),
        warehouse_(warehouse),
        read_at_(std::move(read_at)),
        key_space_(key_space) {}

  void OnStart() override {
    for (TimeMicros at : read_at_) {
      ScheduleSelf(std::make_unique<TickMsg>(), at);
    }
  }

  void OnMessage(ProcessId, MessagePtr msg) override {
    if (msg->kind == Message::Kind::kTick) {
      auto read = std::make_unique<ReadViewsMsg>();
      read->request_id = ++next_request_;
      Send(warehouse_, std::move(read));
      return;
    }
    MVC_CHECK(msg->kind == Message::Kind::kViewsSnapshot);
    auto* snap = static_cast<ViewsSnapshotMsg*>(msg.get());
    MVC_CHECK(snap->ok()) << snap->error;
    // Atomic multi-key inquiry against the snapshot.
    for (int64_t k = 0; k < 4; ++k) {
      const Tuple probe{(snap->request_id * 13 + k * 31) % key_space_,
                        ((snap->request_id * 13 + k * 31) % key_space_) * 7};
      rows_seen += snap->handle.version().Find("V1")->CountOf(probe);
    }
    ++answers;
  }

  ProcessId warehouse_;
  std::vector<TimeMicros> read_at_;
  int64_t key_space_;
  int64_t next_request_ = 0;
  int64_t answers = 0;
  int64_t rows_seen = 0;
};

/// Sends `commits` single-row maintenance transactions spread over the
/// read window, so versions churn while readers are active.
class CommitDriver : public Process {
 public:
  CommitDriver(std::string name, ProcessId warehouse, int64_t commits,
               int64_t key_space)
      : Process(std::move(name)),
        warehouse_(warehouse),
        commits_(commits),
        key_space_(key_space) {}

  void OnStart() override {
    for (int64_t i = 1; i <= commits_; ++i) {
      auto msg = std::make_unique<WarehouseTxnMsg>();
      msg->txn.txn_id = i;
      msg->txn.views = {0};
      ActionList al;
      al.view = 0;
      al.delta.target = "V1";
      al.delta.Add(Tuple{key_space_ + i, (key_space_ + i) * 7}, 1);
      msg->txn.actions = {al};
      SendAfter(warehouse_, std::move(msg), i * 20);
    }
  }

  void OnMessage(ProcessId, MessagePtr msg) override {
    MVC_CHECK(msg->kind == Message::Kind::kTxnCommitted);
  }

  ProcessId warehouse_;
  int64_t commits_;
  int64_t key_space_;
};

struct ThroughputResult {
  double ns_per_read = 0;
  int64_t reads = 0;
};

/// Wall-clock cost per read of a warehouse serving `readers` pooled
/// readers while `commits` maintenance transactions land.
ThroughputResult TimeReadThroughput(int64_t rows, int64_t readers,
                                    int64_t reads_each, int64_t commits) {
  static const IdRegistry* registry = [] {
    auto* r = new IdRegistry();
    r->InternViews({"V1"});
    return r;
  }();

  SimRuntime runtime(11);
  WarehouseOptions options;
  options.max_retained_versions = 8;
  WarehouseProcess warehouse("warehouse", options);
  warehouse.SetRegistry(registry);
  MVC_CHECK(warehouse.CreateView("V1", ViewSchema()).ok());
  Table initial("V1", ViewSchema());
  for (int64_t i = 0; i < rows; ++i) {
    MVC_CHECK(initial.Insert(Tuple{i, i * 7}).ok());
  }
  MVC_CHECK(warehouse.InitializeView("V1", initial).ok());
  ProcessId wpid = runtime.Register(&warehouse);

  CommitDriver driver("driver", wpid, commits, rows);
  runtime.Register(&driver);
  std::vector<std::unique_ptr<LookupReader>> pool;
  Rng rng(7);
  for (int64_t r = 0; r < readers; ++r) {
    pool.push_back(std::make_unique<LookupReader>(
        "reader-" + std::to_string(r), wpid,
        PoissonReadSchedule(rng.engine()(), static_cast<size_t>(reads_each),
                            /*mean_interval_us=*/25.0),
        rows));
    runtime.Register(pool.back().get());
  }

  const auto start = Clock::now();
  runtime.Run();
  ThroughputResult result;
  for (const auto& reader : pool) {
    MVC_CHECK(reader->answers == reads_each);
    result.reads += reader->answers;
  }
  result.ns_per_read = NsSince(start, result.reads);
  return result;
}

int Main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const std::string json_path =
      bench::JsonOutputPath(argc, argv, "BENCH_read.json");

  const int64_t base_rows = tiny ? 1000 : 20000;
  const int64_t acquire_iters = tiny ? 20000 : 200000;
  const int64_t clone_iters = tiny ? 50 : 200;
  const int64_t readers = tiny ? 4 : 8;
  const int64_t reads_each = tiny ? 25 : 100;
  const int64_t commits = tiny ? 20 : 100;

  std::vector<bench::BenchRecord> records;
  bench::TablePrinter table(
      {"benchmark", "iterations", "ns/op"});
  auto record = [&](const std::string& name, int64_t iterations,
                    double ns) {
    records.push_back(bench::BenchRecord{name, iterations, ns, -1});
    table.AddRow(name, iterations, ns);
  };

  // Snapshot acquisition across a 10x size spread.
  const double mvcc_small = TimeMvccAcquire(base_rows, acquire_iters);
  const double mvcc_large = TimeMvccAcquire(base_rows * 10, acquire_iters);
  record("snapshot_acquire/mvcc/rows=" + std::to_string(base_rows),
         acquire_iters, mvcc_small);
  record("snapshot_acquire/mvcc/rows=" + std::to_string(base_rows * 10),
         acquire_iters, mvcc_large);
  const double clone_small = TimeCloneAcquire(base_rows, clone_iters);
  const double clone_large =
      TimeCloneAcquire(base_rows * 10, clone_iters);
  record("snapshot_acquire/clone/rows=" + std::to_string(base_rows),
         clone_iters, clone_small);
  record("snapshot_acquire/clone/rows=" + std::to_string(base_rows * 10),
         clone_iters, clone_large);

  // Read throughput: pooled readers beside a live commit stream.
  ThroughputResult mvcc =
      TimeReadThroughput(base_rows, readers, reads_each, commits);
  record("read_throughput/mvcc/hd=8", mvcc.reads, mvcc.ns_per_read);

  table.Print();
  std::cout << "\nsnapshot acquire, 10x table growth: mvcc "
            << mvcc_small << " -> " << mvcc_large << " ns/op (ratio "
            << (mvcc_large / mvcc_small) << "), clone " << clone_small
            << " -> " << clone_large << " ns/op (ratio "
            << (clone_large / clone_small) << ")\n";

  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "mvc-bench-read-v1", records);
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace mvc

int main(int argc, char** argv) { return mvc::Main(argc, argv); }
