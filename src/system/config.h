// Scenario configuration for a complete warehouse system run.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compact/compactor_process.h"
#include "fault/fault_plan.h"
#include "integrator/integrator.h"
#include "integrator/ticketer.h"
#include "integrator/sequential_integrator.h"
#include "merge/merge_process.h"
#include "query/aggregate.h"
#include "net/sim_runtime.h"
#include "source/source_process.h"
#include "storage/schema.h"
#include "storage/update.h"
#include "viewmgr/aggregate_vm.h"
#include "viewmgr/convergent_vm.h"
#include "viewmgr/periodic_vm.h"
#include "viewmgr/strong_vm.h"
#include "warehouse/reader.h"
#include "warehouse/warehouse.h"

namespace mvc {

/// Which view-manager implementation maintains a view.
enum class ManagerKind : uint8_t {
  kComplete = 0,
  kStrong = 1,
  kPeriodic = 2,
  kConvergent = 3,
  kCompleteN = 4,  // StrongViewManager with fixed batch bounds
};

const char* ManagerKindToString(ManagerKind kind);

/// Scale-out ingest (ROADMAP item 2): sharded integrator, exact merge
/// fan-out, and group commit at the warehouse.
struct IngestConfig {
  /// Upper bound on integrator shards. Sources are clustered so that
  /// every merge group's sources share a shard (see
  /// PlanIntegratorShards); the effective shard count is therefore
  /// min(num_shards, independent source clusters). 1 keeps the single
  /// global sequencer, byte-for-byte the legacy behavior.
  size_t num_shards = 1;
  /// Use the exact relation-disjoint partition — one MergeProcess per
  /// disjoint view group — instead of balancing into
  /// SystemConfig::num_merge_processes groups.
  bool fanout_merge = false;
  /// Batch independent transactions into one versioned-store commit at
  /// the warehouse (see GroupCommitOptions in warehouse.h).
  GroupCommitOptions group_commit;
};

/// Self-maintenance with shared delta plans (ROADMAP item 3, src/maint/):
/// replace the per-view managers with one SelfMaintainingVm per merge
/// group that maintains every view of the group from auxiliary views,
/// factoring common delta subexpressions across the view set.
struct MaintConfig {
  /// Maintain all views through self-maintaining group managers. The
  /// emitted action lists are byte-identical to the per-view complete
  /// managers' (one AL per relevant update per view), so everything
  /// downstream of the view managers is unchanged. Incompatible with
  /// per-view manager_kinds, aggregates, fault injection, piggybacked
  /// REL delivery, and the sequential baseline.
  bool self_maintain = false;
  /// Test-only mutation: skip the Nth effective auxiliary apply
  /// (1-based), leaving the auxiliary store stale — the consistency
  /// checker must catch the resulting divergence (explorer self-test).
  int64_t mutation_skip_aux_apply = 0;
};

/// One transaction injected into a source at a simulated time.
struct Injection {
  TimeMicros at = 0;
  std::string source;
  std::vector<Update> updates;
  int64_t global_txn_id = 0;
  int32_t global_participants = 0;
};

struct SystemConfig {
  // --- Data layout ---
  /// Source name -> relations it hosts. Relation names must be globally
  /// unique.
  std::map<std::string, std::vector<std::string>> sources;
  /// Relation -> schema.
  std::map<std::string, Schema> schemas;
  /// Relation -> initial tuples (state ss_0).
  std::map<std::string, std::vector<Tuple>> initial_data;
  /// The warehouse views.
  std::vector<ViewDefinition> views;
  /// Views that are aggregates over their SPJ core (keyed by view name,
  /// which must appear in `views`). Such views are maintained by an
  /// AggregateViewManager regardless of manager_kinds.
  std::map<std::string, AggregateSpec> aggregates;
  AggregateViewManagerOptions aggregate_options;

  // --- Maintenance configuration ---
  /// Per-view manager kind; views absent from the map use kComplete.
  std::map<std::string, ManagerKind> manager_kinds;
  ViewManagerOptions vm_options;
  StrongViewManagerOptions strong_options;
  PeriodicViewManagerOptions periodic_options;
  ConvergentViewManagerOptions convergent_options;
  /// Batch size for kCompleteN managers.
  size_t complete_n = 2;

  IntegratorOptions integrator;
  MergeOptions merge;
  /// Derive each merge process's algorithm from the weakest manager in
  /// its group instead of using merge.algorithm.
  bool auto_algorithm = true;
  /// Number of merge processes (distributed merge, Section 6.1). Views
  /// are partitioned by shared base relations, then balanced into at
  /// most this many groups. Ignored when ingest.fanout_merge is set.
  size_t num_merge_processes = 1;
  /// Scale-out ingest: integrator sharding, merge fan-out, group commit.
  IngestConfig ingest;
  /// Self-maintenance + shared delta plans (src/maint/).
  MaintConfig maint;
  WarehouseOptions warehouse;
  SourceOptions source_options;

  /// Background compaction of the warehouse's versioned store
  /// (src/compact/): when enabled, Wire() registers a CompactorProcess
  /// and points the warehouse at it. Pair with a non-zero
  /// warehouse.max_retained_versions — with no retained history there
  /// is nothing to compact.
  CompactionConfig compaction;

  /// Attach a reader pool from the config (Wire() calls
  /// AttachReaderPool). Exists so pure-config consumers — the schedule
  /// explorer rebuilds the system from SystemConfig alone — can put
  /// concurrent reads into the explored schedule.
  bool attach_readers = false;
  ReaderPoolOptions readers;

  /// Replace the concurrent architecture by the Section 1.1 sequential
  /// strawman (one process does everything).
  bool sequential_baseline = false;
  SequentialIntegratorOptions sequential;

  /// Fault injection & crash recovery (src/fault/). A non-empty plan
  /// wires checkpointing into every view manager, a WAL into every merge
  /// process, and registers the fault injector.
  FaultOptions fault;

  // --- Observability (src/obs/) ---
  /// Register metric instruments (counters, gauges, histograms) in every
  /// process; snapshot them after Run via WarehouseSystem::metrics().
  bool collect_metrics = false;
  /// Record per-update trace spans (source post -> sequencing -> AL
  /// production -> merge -> commit); required for the derived latency /
  /// staleness histograms, which are computed from the trace at the end
  /// of Run.
  bool collect_trace = false;

  // --- Runtime ---
  uint64_t seed = 1;
  LatencyModel latency = LatencyModel::Zero();
  /// Let the consistency oracle judge view contents: the recorder
  /// accepts content checks and view managers collect the covered-update
  /// lists the duplicate-AL check needs. Nothing is snapshotted — the
  /// checker replays the recorded action lists — so the cost is the
  /// covered lists alone. Off, only coverage/ordering can be checked.
  bool record_snapshots = true;
  /// Run on real threads instead of the deterministic simulator.
  bool use_threads = false;
  /// Test/explorer hook: when set, Wire() takes the runtime from this
  /// factory instead of constructing a SimRuntime/ThreadRuntime (the
  /// schedule explorer installs an ExploringRuntime per re-execution).
  /// Called once, before any process registers.
  std::function<std::unique_ptr<Runtime>(const SystemConfig&)>
      runtime_factory;

  // --- Workload ---
  std::vector<Injection> workload;
};

}  // namespace mvc
