// Concrete message types exchanged between the warehouse system's
// processes, plus the ActionList and WarehouseTransaction payloads the
// merge algorithms coordinate.
//
// Naming follows the paper: update U_i is the i-th source transaction as
// numbered by the integrator; REL_i is the set of views U_i affects;
// AL^x_j is view manager x's action list whose application brings view
// V_x to the state consistent with the sources after U_j.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "query/scan.h"
#include "storage/delta.h"
#include "storage/id_registry.h"
#include "storage/table.h"
#include "storage/update.h"
#include "storage/versioned_store.h"

namespace mvc {

/// Identifies a global source transaction/update number assigned by the
/// integrator (1-based; matches the paper's U_1, U_2, ...).
using UpdateId = int64_t;
constexpr UpdateId kInvalidUpdate = 0;

/// The operations a view manager wants applied to its view, labelled with
/// the last update the list covers. A complete view manager emits one AL
/// per relevant update (first_update == update). A strongly consistent
/// manager may batch intertwined updates i_k..i_{k+n} into a single AL
/// labelled with the last one (Section 3.3).
struct ActionList {
  /// View this AL applies to (interned at wiring time).
  ViewId view = kInvalidView;
  /// j: applying the AL brings the view to the state after U_j.
  UpdateId update = kInvalidUpdate;
  /// Earliest update covered by this AL (== update for complete VMs).
  UpdateId first_update = kInvalidUpdate;
  /// All covered update ids, ascending. Collected only when the view
  /// manager runs with collect_covered (piggyback REL delivery, the
  /// consistency oracle, and crash recovery need it); release-mode ALs
  /// omit it and consumers fall back to the [first_update, update]
  /// label range.
  std::vector<UpdateId> covered;
  /// The actual view changes; may be empty (an empty AL is still sent,
  /// Section 3.3).
  TableDelta delta;
  /// Periodic-refresh managers (Section 6.3): when true the warehouse
  /// deletes the entire old view contents and installs `delta`'s
  /// (all-positive) rows as the new contents.
  bool replace_all = false;

  /// Renders "V#<id>"; pass `names` to render the interned view name.
  std::string ToString(const IdRegistry* names = nullptr) const;
};

/// A warehouse view-maintenance transaction assembled by a merge process:
/// all action lists that must commit atomically.
struct WarehouseTransaction {
  /// Merge-process-local id, increasing in submission order.
  int64_t txn_id = 0;
  /// The VUT rows (update ids) whose WT sets are folded in, ascending.
  std::vector<UpdateId> rows;
  /// Action lists, ordered so that dependent rows' ALs appear in row
  /// order (Section 4.3 batching requirement).
  std::vector<ActionList> actions;
  /// VS(WT): the set of views this transaction updates, sorted by id.
  std::vector<ViewId> views;
  /// txn_ids (same merge process) this transaction depends on: earlier
  /// transactions updating an overlapping view set that have not yet
  /// been observed committed at submission time.
  std::vector<int64_t> depends_on;
  /// The source state (max update id) the warehouse reflects after this
  /// transaction commits — used by the oracle and freshness metrics.
  UpdateId source_state = kInvalidUpdate;

  /// With `names`, view ids render as view names (trace output);
  /// without, they render as raw ids.
  std::string ToString(const IdRegistry* names = nullptr) const;
};

// ---------------------------------------------------------------------------
// Messages.

/// Source -> integrator: a committed source transaction, in commit order.
struct SourceTxnMsg : Message {
  SourceTxnMsg() : Message(Kind::kSourceTxn) {}
  SourceTransaction txn;
  std::string Summary() const override;
};

/// Integrator -> view manager: U_i (already globally numbered).
struct UpdateMsg : Message {
  UpdateMsg() : Message(Kind::kUpdate) {}
  UpdateId update_id = kInvalidUpdate;
  /// Integrator shard that numbered U_i (0 when unsharded).
  int32_t shard = 0;
  SourceTransaction txn;
  /// Alternate REL delivery scheme (Section 3.2): when set, this view
  /// manager is responsible for forwarding REL_i to the merge process
  /// with its next action list.
  bool carries_rel = false;
  /// REL_i, only meaningful when carries_rel.
  std::vector<ViewId> rel_views;
  std::string Summary() const override;
};

/// Integrator -> merge process: REL_i.
struct RelSetMsg : Message {
  RelSetMsg() : Message(Kind::kRelSet) {}
  UpdateId update_id = kInvalidUpdate;
  /// Integrator shard that numbered U_i (0 when unsharded).
  int32_t shard = 0;
  /// Views affected by U_i, sorted by id.
  std::vector<ViewId> views;
  std::string Summary() const override;
};

/// View manager -> merge process: AL^x_j.
struct ActionListMsg : Message {
  ActionListMsg() : Message(Kind::kActionList) {}
  ActionList al;
  /// When the alternate REL delivery scheme is enabled (Section 3.2),
  /// the integrator piggybacks REL_i on the view managers and the VM
  /// forwards it here instead of the integrator messaging the merge
  /// process directly.
  std::vector<RelSetMsg> piggybacked_rels;
  std::string Summary() const override;
};

/// Merge process -> warehouse.
struct WarehouseTxnMsg : Message {
  WarehouseTxnMsg() : Message(Kind::kWarehouseTxn) {}
  WarehouseTransaction txn;
  std::string Summary() const override;
};

/// Warehouse -> merge process: commit acknowledgement, in commit order.
struct TxnCommittedMsg : Message {
  TxnCommittedMsg() : Message(Kind::kTxnCommitted) {}
  int64_t txn_id = 0;
  std::string Summary() const override;
};

/// View manager -> source: read a base relation. If `as_of_state` is
/// >= 0, the source answers from its versioned log at that local state
/// (complete view managers); otherwise it answers at its current state
/// (Strobe-style managers).
struct QueryRequestMsg : Message {
  QueryRequestMsg() : Message(Kind::kQueryRequest) {}
  int64_t request_id = 0;
  RelationId relation = kInvalidRelation;
  int64_t as_of_state = -1;
  std::string Summary() const override;
};

/// Source -> view manager: relation snapshot plus the source-local state
/// number it reflects.
struct QueryResponseMsg : Message {
  QueryResponseMsg() : Message(Kind::kQueryResponse) {}
  int64_t request_id = 0;
  RelationId relation = kInvalidRelation;
  Table snapshot;
  int64_t state = 0;
  std::string Summary() const override;
};

/// Self-scheduled timer with an opaque tag.
struct TickMsg : Message {
  TickMsg() : Message(Kind::kTick) {}
  int64_t tag = 0;
  std::string Summary() const override;
};

/// A warehouse reader (e.g. a customer-inquiry application) asking for
/// the current contents of several views in one atomic read — the
/// Section 1.1 access pattern MVC exists to protect.
struct ReadViewsMsg : Message {
  ReadViewsMsg() : Message(Kind::kReadViews) {}
  int64_t request_id = 0;
  /// Views to read; empty means all views.
  std::vector<ViewId> views;
  /// Time-travel read: serve the snapshot as of this commit count
  /// instead of the current state (-1 = current). Requires the
  /// warehouse to retain versions (WarehouseOptions::max_retained_versions);
  /// a read outside the retained window gets a clean error response.
  int64_t as_of_commit = -1;
  std::string Summary() const override;
};

/// Warehouse -> reader: a mutually consistent snapshot of the requested
/// views (all taken at one warehouse state).
///
/// In-process the snapshot travels as an O(1) SnapshotHandle into the
/// warehouse's MVCC store plus the resolved names of the requested views;
/// flat Tables are produced only at the reader/serialization boundary
/// (TakeTables).
struct ViewsSnapshotMsg : Message {
  ViewsSnapshotMsg() : Message(Kind::kViewsSnapshot) {}
  int64_t request_id = 0;
  /// Number of warehouse transactions committed before this snapshot.
  int64_t as_of_commit = 0;
  /// Shared reference to the immutable store version; holding this
  /// message pins the version against garbage collection.
  SnapshotHandle handle;
  /// Resolved names of the requested views, in request order.
  std::vector<std::string> view_names;
  /// Non-empty when the read failed cleanly — a time-travel read of a
  /// garbage-collected version, or a view id the warehouse does not
  /// know. No snapshot fields are populated then.
  std::string error;

  bool ok() const { return error.empty(); }
  /// Materializes the requested views as flat Tables, consuming the
  /// message's payload: the reader/serialization boundary.
  std::vector<Table> TakeTables();
  std::string Summary() const override;
};

/// Reader -> warehouse: execute one ScanQuery against a single view, in
/// place on the pinned snapshot — the production read tier. Unlike
/// ReadViewsMsg (which ships a whole-snapshot handle for boundary
/// flattening), the warehouse evaluates the query against the columnar
/// chunks and returns only the matching rows.
struct QueryViewMsg : Message {
  QueryViewMsg() : Message(Kind::kQueryView) {}
  int64_t request_id = 0;
  ViewId view = kInvalidView;
  /// Time-travel query: evaluate at this commit (-1 = current). Same
  /// retention rules as ReadViewsMsg.
  int64_t as_of_commit = -1;
  ScanQuery query;
  std::string Summary() const override;
};

/// Warehouse -> reader: the rows matching one QueryViewMsg, or a clean
/// error, or an explicit shed notice when admission control rejected the
/// query at the door (the reader should back off and retry; nothing was
/// executed).
struct QueryResultMsg : Message {
  QueryResultMsg() : Message(Kind::kQueryResult) {}
  int64_t request_id = 0;
  /// Commit the query actually executed at (-1 on error/shed).
  int64_t as_of_commit = -1;
  /// Matching rows in the executor's deterministic order.
  std::vector<Row> rows;
  /// Total multiplicity of matches before any limit.
  int64_t matched_count = 0;
  /// Distinct rows the executor examined.
  int64_t rows_scanned = 0;
  /// True when the warehouse was over its in-flight query budget and
  /// rejected the query without executing it.
  bool shed = false;
  /// Non-empty on clean failure (unknown view, GC'd commit, bad query).
  std::string error;

  bool ok() const { return error.empty() && !shed; }
  std::string Summary() const override;
};

/// Workload driver -> source: execute this transaction now.
struct InjectTxnMsg : Message {
  InjectTxnMsg() : Message(Kind::kInjectTxn) {}
  std::vector<Update> updates;
  /// Section 6.2: set on each per-source part of a global transaction.
  int64_t global_txn_id = 0;
  int32_t global_participants = 0;
  std::string Summary() const override;
};

// ---------------------------------------------------------------------------
// Fault injection & crash recovery (src/fault/).
//
// Crashes and restarts are delivered as messages so both runtimes gain
// fault semantics through the same channel machinery (Process::Deliver
// intercepts them before OnMessage). Recovery protocols piggyback on the
// per-channel FIFO guarantee: a resync response covers everything its
// sender emitted before generating it, so the recovering process drops
// ordinary traffic of that kind until the response arrives and can then
// resume without gaps or duplicates. Every request carries the
// requester's recovery epoch; responses echo it so answers to an
// interrupted recovery attempt are discarded.

/// Fault injector -> any process: lose all volatile state and drop every
/// message delivered until the matching RecoverMsg.
struct CrashMsg : Message {
  CrashMsg() : Message(Kind::kCrash) {}
  std::string Summary() const override;
};

/// Fault injector -> any process: restart from durable state.
struct RecoverMsg : Message {
  RecoverMsg() : Message(Kind::kRecover) {}
  std::string Summary() const override;
};

/// Recovering view manager -> integrator: resend every retained update
/// relevant to `view` with id > after (the restored checkpoint's
/// last covered update).
struct ReplayRequestMsg : Message {
  ReplayRequestMsg() : Message(Kind::kReplayRequest) {}
  ViewId view = kInvalidView;
  UpdateId after = kInvalidUpdate;
  int64_t epoch = 0;
  std::string Summary() const override;
};

/// One replayed numbered update.
struct ReplayedUpdate {
  UpdateId id = kInvalidUpdate;
  SourceTransaction txn;
};

/// Integrator -> view manager: the requested tail of the update stream.
struct ReplayResponseMsg : Message {
  ReplayResponseMsg() : Message(Kind::kReplayResponse) {}
  int64_t epoch = 0;
  std::vector<ReplayedUpdate> updates;
  std::string Summary() const override;
};

/// Recovering merge -> integrator: resend every REL_i this merge would
/// have been sent with i > after.
struct RelResyncRequestMsg : Message {
  RelResyncRequestMsg() : Message(Kind::kRelResyncRequest) {}
  UpdateId after = kInvalidUpdate;
  int64_t epoch = 0;
  std::string Summary() const override;
};

/// One resynced REL entry (views restricted to the requesting merge).
struct RelEntry {
  UpdateId update_id = kInvalidUpdate;
  std::vector<ViewId> views;
};

/// Integrator -> merge.
struct RelResyncResponseMsg : Message {
  RelResyncResponseMsg() : Message(Kind::kRelResyncResponse) {}
  int64_t epoch = 0;
  std::vector<RelEntry> rels;
  std::string Summary() const override;
};

/// Recovering merge -> view manager: resend every action list of `view`
/// with label > after, served from the manager's durable outbox.
struct AlResyncRequestMsg : Message {
  AlResyncRequestMsg() : Message(Kind::kAlResyncRequest) {}
  ViewId view = kInvalidView;
  UpdateId after = kInvalidUpdate;
  int64_t epoch = 0;
  std::string Summary() const override;
};

/// View manager -> merge.
struct AlResyncResponseMsg : Message {
  AlResyncResponseMsg() : Message(Kind::kAlResyncResponse) {}
  ViewId view = kInvalidView;
  int64_t epoch = 0;
  std::vector<ActionList> action_lists;
  std::string Summary() const override;
};

/// Recovering merge -> warehouse: which of my transactions have
/// committed? (Acks delivered while the merge was down were lost.)
struct CommitResyncRequestMsg : Message {
  CommitResyncRequestMsg() : Message(Kind::kCommitResyncRequest) {}
  int64_t epoch = 0;
  std::string Summary() const override;
};

/// Warehouse -> merge: every txn_id the sender has committed, sorted.
struct CommitResyncResponseMsg : Message {
  CommitResyncResponseMsg() : Message(Kind::kCommitResyncResponse) {}
  int64_t epoch = 0;
  std::vector<int64_t> committed;
  std::string Summary() const override;
};

}  // namespace mvc
