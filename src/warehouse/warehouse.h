// The warehouse: stores the materialized views and applies
// view-maintenance transactions atomically.
//
// Each WarehouseTransaction is applied as one atomic unit (all of its
// action lists together), matching the paper's requirement that one
// source update's effects on multiple views appear simultaneously.
//
// Commit ordering (Section 4.3): a real DBMS may finish transactions out
// of submission order. The warehouse models this with a randomized
// per-transaction processing delay. When `honor_dependencies` is set it
// respects the dependency edges the merge process attaches (a dependent
// transaction waits for its predecessors); switching it off while
// keeping reordering on reproduces the WT3-before-WT1 anomaly the paper
// warns about — the MVC tests use exactly this ablation.
//
// State: the VersionedStore is the warehouse's only copy of the views.
// Every action list is applied once, to the store's working tables, and
// every commit publishes an immutable version with structural sharing —
// a commit copies only the chunks its action lists touch. Reads are
// answered with O(1) SnapshotHandles; time-travel reads
// (ReadViewsMsg::as_of_commit) index the store's retained window, and a
// read of a garbage-collected version, an unknown view, or a view
// missing from the snapshot gets a clean error response. The
// consistency oracle keeps its own flat replay of the committed action
// lists (src/consistency) and checks the store's latest version against
// it at the end of a run.

#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "compact/compact_messages.h"
#include "net/protocol.h"
#include "net/runtime.h"
#include "obs/metrics.h"
#include "storage/id_registry.h"
#include "storage/versioned_store.h"

namespace mvc {

/// Group commit (scale-out ingest): transactions from independent merge
/// groups are buffered and folded into one versioned-store commit,
/// bounding the number of store versions (and snapshot churn) under a
/// sharded ingest fan-in. The store's working tables, the commit
/// observer, and the per-transaction acks all still advance one
/// transaction at a time, so the consistency oracle and the merge
/// processes are oblivious; only the version the read path sees is
/// batched. Configured through
/// SystemConfig::ingest.
struct GroupCommitOptions {
  bool enabled = false;
  /// Flush when this many transactions are buffered.
  size_t max_batch = 8;
  /// Flush deadline: a buffered transaction waits at most this long for
  /// the batch to fill. 0 flushes on the next scheduler step.
  TimeMicros max_delay_us = 0;
};

struct WarehouseOptions {
  /// Fixed part of the per-transaction processing time.
  TimeMicros apply_delay = 0;
  /// Uniform extra processing time in [0, apply_jitter]; non-zero values
  /// let independent transactions finish out of submission order.
  TimeMicros apply_jitter = 0;
  /// Respect WarehouseTransaction::depends_on (commit dependent
  /// transactions in submission order). Disabling this while jitter is
  /// non-zero demonstrates the Section 4.3 anomaly.
  bool honor_dependencies = true;
  /// Seed for the jitter draws.
  uint64_t seed = 11;
  /// Number of past versions the MVCC store keeps reachable for
  /// time-travel reads, on top of the always-readable current version.
  /// Versions older than the window survive only while a live snapshot
  /// handle pins them; reading them returns a clean error. O(delta)
  /// per-commit cost regardless of value — safe for production sizing.
  size_t max_retained_versions = 0;

  /// --- Snapshot-serving query tier (QueryViewMsg admission control) ---

  /// Queries admitted but not yet answered before new arrivals are shed
  /// with an explicit QueryResultMsg{shed=true} instead of queueing
  /// unboundedly. 0 = unbounded admission (never sheds). Only meaningful
  /// with a non-zero service time — with instant service nothing stays
  /// in flight.
  size_t max_inflight_queries = 0;
  /// Simulated per-query service time: the query executes at admission
  /// (against the snapshot pinned then) and the response is delivered
  /// after this delay, modeling executor occupancy. 0 = answer inline.
  TimeMicros query_service_us = 0;
  /// Additional service time per 1000 distinct rows scanned, so big
  /// scans occupy the executor longer than point probes.
  TimeMicros query_cost_per_krow = 0;

  /// Group commit (see GroupCommitOptions; wired from
  /// SystemConfig::ingest.group_commit).
  GroupCommitOptions group_commit;
};

class WarehouseProcess : public Process {
 public:
  explicit WarehouseProcess(std::string name, WarehouseOptions options = {})
      : Process(std::move(name)),
        options_(options),
        rng_(options.seed),
        store_(options.max_retained_versions) {}

  /// --- Setup ---

  /// Resolves ViewIds in incoming transactions/reads back to catalog
  /// names; must be set before the runtime starts and outlive the
  /// process.
  void SetRegistry(const IdRegistry* registry) { registry_ = registry; }

  /// Registers the warehouse's snapshot metrics
  /// (warehouse.snapshot_bytes_shared, warehouse.versions_live). Must be
  /// called at wiring time, like every registry registration.
  void EnableObservability(obs::MetricsRegistry* metrics);

  Status CreateView(const std::string& view, const Schema& schema) {
    return store_.CreateTable(view, schema);
  }

  /// Installs the initial materialization of a view.
  Status InitializeView(const std::string& view, const Table& contents);

  /// Points the warehouse at a CompactorProcess: every
  /// `stats_every_commits` commits it sends a CompactionStatsMsg with
  /// per-version detail capped at `max_version_detail`, and it answers
  /// the compactor's CompactionRequestMsgs between commits. Must be set
  /// before the runtime starts.
  void SetCompactor(ProcessId compactor, int64_t stats_every_commits,
                    size_t max_version_detail);

  /// Invoked after every commit with the submitter, the transaction, and
  /// the commit time. The consistency oracle hooks this.
  void SetCommitObserver(
      std::function<void(ProcessId submitter, const WarehouseTransaction&,
                         TimeMicros)>
          observer) {
    observer_ = std::move(observer);
  }

  /// --- Introspection ---

  int64_t transactions_committed() const { return committed_count_; }
  int64_t actions_applied() const { return actions_applied_; }
  /// The warehouse state: every view, every published version.
  const VersionedStore& store() const { return store_; }
  /// Flattens `view` as of the latest published version. NotFound for a
  /// view the store does not hold.
  Result<Table> MaterializeView(const std::string& view) const {
    return store_.AcquireSnapshot().MaterializeTable(view);
  }

  void OnStart() override { EnsureInitialVersion(); }
  void OnMessage(ProcessId from, MessagePtr msg) override;

 private:
  struct InFlight {
    ProcessId submitter;
    WarehouseTransaction txn;
  };

  /// True if every dependency of `txn` (from `submitter`) has committed.
  bool DependenciesMet(ProcessId submitter,
                       const WarehouseTransaction& txn) const;

  /// Applies the transaction to the store's working tables (plus commit
  /// count, observer, ack); the caller decides when the store version is
  /// published.
  void Apply(const InFlight& in_flight);
  void Commit(InFlight in_flight);
  /// Group-commit entry: applies the transaction (observer + ack fire
  /// per transaction, in order) but defers the version publish to the
  /// batch flush.
  void Enqueue(InFlight in_flight);
  /// Publishes one store version covering every buffered transaction.
  void FlushBatch();
  /// Group commit on: Enqueue; off: Commit. Both end dependency-ready.
  void Admit(InFlight in_flight);
  void RetryHeld();

  Status ApplyActionList(const ActionList& al);

  /// Publishes commit 0 (the initialized, pre-commit state) into the
  /// versioned store exactly once.
  void EnsureInitialVersion();

  /// Name of a minted view id; nullptr for an id the registry never
  /// minted (reads name views by caller-supplied ids).
  const std::string* ResolveView(ViewId view) const;

  void ServeRead(ProcessId from, const ReadViewsMsg& read);

  /// Executes one ScanQuery in place on a pinned snapshot and answers
  /// with the matching rows — or an explicit shed response when the
  /// in-flight budget is exhausted. With a non-zero service cost the
  /// query still executes at admission time (snapshot semantics) but
  /// the response is delivered after the modeled delay via a
  /// negative-tagged self tick.
  void ServeQuery(ProcessId from, const QueryViewMsg& query);

  /// Sends a stats snapshot to the compactor (post-commit trigger).
  void SendCompactionStats();
  /// Threshold-crossing trigger: fires whenever the commit count has
  /// advanced by at least stats_every_commits since the last send (a
  /// batched flush may jump the counter past several multiples).
  void MaybeSendCompactionStats();

  /// Applies/serves one compactor request: collapse (apply inline),
  /// squash fetch (pin + hand out a handle), squash swap (atomic
  /// version rebuild). Each is O(spec), never O(store) — compaction
  /// work interleaves with commits without blocking them.
  void ServeCompaction(ProcessId from, CompactionRequestMsg* req);

  WarehouseOptions options_;
  Rng rng_;
  const IdRegistry* registry_ = nullptr;
  /// Background compaction (kInvalidProcess = disabled).
  ProcessId compactor_ = kInvalidProcess;
  int64_t compaction_stats_every_ = 0;
  /// Commit count at the last stats send; the trigger is a threshold
  /// crossing, not a modulus, so batched commits that jump the counter
  /// by several transactions still report.
  int64_t compaction_stats_last_ = 0;
  size_t compaction_detail_ = 0;
  /// The views: one immutable version per commit, structural sharing
  /// across versions. Serves every read.
  VersionedStore store_;
  /// Transactions whose processing delay elapsed but whose dependencies
  /// have not committed yet, in arrival order.
  std::vector<InFlight> held_;
  /// Processing transactions keyed by an internal ticket (tick tag).
  std::map<int64_t, InFlight> processing_;
  int64_t next_ticket_ = 0;
  /// Admitted queries awaiting their modeled service delay, keyed by a
  /// NEGATIVE tick tag — disjoint from the positive transaction ticket
  /// space so the two self-timer streams cannot collide.
  struct PendingQuery {
    ProcessId requester = kInvalidProcess;
    std::unique_ptr<QueryResultMsg> response;
  };
  std::map<int64_t, PendingQuery> pending_queries_;
  size_t inflight_queries_ = 0;
  int64_t next_query_ticket_ = 0;
  /// Committed txn ids per submitting merge process.
  std::map<ProcessId, std::set<int64_t>> committed_;
  /// Group commit: transactions applied to the working tables but not
  /// yet published as a store version, with their admission times (for the
  /// ingest.commit_latency_us histogram).
  struct Buffered {
    int64_t txn_id = 0;
    ProcessId submitter = kInvalidProcess;
    TimeMicros admitted_at = 0;
  };
  std::vector<Buffered> batch_;
  /// A flush tick (tag kFlushTag) is already in flight.
  bool flush_scheduled_ = false;
  /// Reserved self-tick tag for the group-commit flush timer; positive
  /// transaction tickets start at 1 and query tickets are negative, so
  /// 0 is free.
  static constexpr int64_t kFlushTag = 0;
  int64_t committed_count_ = 0;
  int64_t actions_applied_ = 0;
  /// Bytes of chunk storage shared with an outgoing snapshot (cumulative
  /// over all handles handed out); nullptr when observability is off.
  obs::Counter* snapshot_bytes_shared_ = nullptr;
  /// Store versions currently reachable (retained window + pinned).
  obs::Gauge* versions_live_ = nullptr;
  /// Queries rejected by admission control (read.shed_total).
  obs::Counter* queries_shed_ = nullptr;
  /// Distinct rows examined per executed query (read.rows_scanned).
  obs::Histogram* rows_scanned_ = nullptr;
  /// Transactions folded into each published store version
  /// (ingest.batch_size); nullptr when observability or group commit is
  /// off.
  obs::Histogram* batch_size_ = nullptr;
  /// Admission-to-publish wait per transaction under group commit
  /// (ingest.commit_latency_us).
  obs::Histogram* commit_latency_us_ = nullptr;
  std::function<void(ProcessId, const WarehouseTransaction&, TimeMicros)>
      observer_;
};

}  // namespace mvc
