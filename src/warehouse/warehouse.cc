#include "warehouse/warehouse.h"

#include "common/string_util.h"
#include "query/scan.h"

namespace mvc {

Status WarehouseProcess::InitializeView(const std::string& view,
                                        const Table& contents) {
  MVC_ASSIGN_OR_RETURN(VersionedTable * versioned, store_.GetTable(view));
  MVC_CHECK(versioned->empty());
  Status st;
  contents.ForEachRow([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = versioned->Insert(t, c);
  });
  return st;
}

void WarehouseProcess::EnableObservability(obs::MetricsRegistry* metrics) {
  snapshot_bytes_shared_ =
      metrics->RegisterCounter("warehouse.snapshot_bytes_shared");
  versions_live_ = metrics->RegisterGauge("warehouse.versions_live");
  queries_shed_ = metrics->RegisterCounter("read.shed_total");
  rows_scanned_ = metrics->RegisterHistogram("read.rows_scanned", "rows");
  if (options_.group_commit.enabled) {
    batch_size_ = metrics->RegisterHistogram("ingest.batch_size", "txns");
    commit_latency_us_ =
        metrics->RegisterHistogram("ingest.commit_latency_us", "us");
  }
}

void WarehouseProcess::SetCompactor(ProcessId compactor,
                                    int64_t stats_every_commits,
                                    size_t max_version_detail) {
  MVC_CHECK(stats_every_commits >= 1) << "stats_every_commits must be >= 1";
  compactor_ = compactor;
  compaction_stats_every_ = stats_every_commits;
  compaction_detail_ = max_version_detail;
}

void WarehouseProcess::EnsureInitialVersion() {
  if (store_.latest_commit() < 0) {
    // Publish the initialized, pre-commit state as commit 0 so a
    // time-travel read of commit 0 works before any transaction lands.
    store_.Commit(0);
    if (versions_live_ != nullptr) {
      versions_live_->Set(static_cast<int64_t>(store_.versions_live()));
    }
  }
}

bool WarehouseProcess::DependenciesMet(
    ProcessId submitter, const WarehouseTransaction& txn) const {
  auto it = committed_.find(submitter);
  for (int64_t dep : txn.depends_on) {
    if (it == committed_.end() || it->second.count(dep) == 0) return false;
  }
  return true;
}

Status WarehouseProcess::ApplyActionList(const ActionList& al) {
  MVC_CHECK(registry_ != nullptr) << "warehouse registry not wired";
  const std::string& name = registry_->ViewName(al.view);
  MVC_ASSIGN_OR_RETURN(VersionedTable * versioned, store_.GetTable(name));
  if (al.replace_all) versioned->Clear();
  ++actions_applied_;
  return versioned->ApplyDelta(al.delta);
}

// Applies the transaction to the store's working tables, advances the
// commit count, and fires the observer + ack. Publishing the store
// version is the caller's business: Commit seals immediately, Enqueue
// defers to the batch flush.
void WarehouseProcess::Apply(const InFlight& in_flight) {
  EnsureInitialVersion();
  for (const ActionList& al : in_flight.txn.actions) {
    Status st = ApplyActionList(al);
    MVC_CHECK(st.ok()) << "warehouse transaction "
                       << in_flight.txn.ToString()
                       << " failed: " << st.ToString();
  }
  committed_[in_flight.submitter].insert(in_flight.txn.txn_id);
  ++committed_count_;
  if (observer_) observer_(in_flight.submitter, in_flight.txn, Now());
  auto ack = std::make_unique<TxnCommittedMsg>();
  ack->txn_id = in_flight.txn.txn_id;
  Send(in_flight.submitter, std::move(ack));
}

void WarehouseProcess::Commit(InFlight in_flight) {
  Apply(in_flight);
  store_.Commit(committed_count_);
  if (versions_live_ != nullptr) {
    versions_live_->Set(static_cast<int64_t>(store_.versions_live()));
  }
  MaybeSendCompactionStats();
}

void WarehouseProcess::Enqueue(InFlight in_flight) {
  Apply(in_flight);
  batch_.push_back(Buffered{in_flight.txn.txn_id, in_flight.submitter,
                            Now()});
  if (batch_.size() >= options_.group_commit.max_batch) {
    FlushBatch();
    return;
  }
  if (!flush_scheduled_) {
    // One deadline tick per open batch; a tick finding the batch already
    // flushed (by size) flushes whatever accumulated since, which is the
    // deadline semantics those later transactions want anyway.
    flush_scheduled_ = true;
    auto tick = std::make_unique<TickMsg>();
    tick->tag = kFlushTag;
    ScheduleSelf(std::move(tick), options_.group_commit.max_delay_us);
  }
}

void WarehouseProcess::FlushBatch() {
  if (batch_.empty()) return;
  store_.Commit(committed_count_);
  if (versions_live_ != nullptr) {
    versions_live_->Set(static_cast<int64_t>(store_.versions_live()));
  }
  if (batch_size_ != nullptr) {
    batch_size_->Record(static_cast<int64_t>(batch_.size()));
  }
  if (commit_latency_us_ != nullptr) {
    for (const Buffered& b : batch_) {
      commit_latency_us_->Record(Now() - b.admitted_at);
    }
  }
  batch_.clear();
  MaybeSendCompactionStats();
}

void WarehouseProcess::Admit(InFlight in_flight) {
  if (options_.group_commit.enabled) {
    Enqueue(std::move(in_flight));
  } else {
    Commit(std::move(in_flight));
  }
}

void WarehouseProcess::MaybeSendCompactionStats() {
  if (compactor_ == kInvalidProcess) return;
  if (committed_count_ - compaction_stats_last_ < compaction_stats_every_) {
    return;
  }
  compaction_stats_last_ = committed_count_;
  SendCompactionStats();
}

void WarehouseProcess::SendCompactionStats() {
  auto stats = std::make_unique<CompactionStatsMsg>();
  stats->stats = store_.ComputeStats(compaction_detail_);
  Send(compactor_, std::move(stats));
}

void WarehouseProcess::ServeCompaction(ProcessId from,
                                       CompactionRequestMsg* req) {
  auto resp = std::make_unique<CompactionResponseMsg>();
  resp->request_id = req->request_id;
  resp->spec = req->spec;
  switch (req->spec.kind) {
    case CompactionKind::kCollapseVersions: {
      resp->phase = CompactionResponseMsg::Phase::kApplied;
      resp->result = store_.CollapseVersions(req->spec.victims);
      break;
    }
    case CompactionKind::kSquashChunks: {
      if (!req->has_replacement) {
        // Phase 1: pin the version and hand the compactor a handle to
        // rebuild from. The pin also shields the version from any
        // concurrent collapse until the compactor releases it.
        Result<SnapshotHandle> at =
            store_.AcquireSnapshotAt(req->spec.commit_id);
        if (!at.ok()) {
          resp->phase = CompactionResponseMsg::Phase::kDiscarded;
          resp->note = at.status().message();
        } else {
          resp->phase = CompactionResponseMsg::Phase::kFetched;
          resp->handle = *std::move(at);
        }
        break;
      }
      // Phase 2: atomic swap-in of the rebuilt table. Validation and
      // refcount safety live in the store; a stale request (version
      // collapsed or contents drifted) is discarded, never fatal.
      Result<CompactionApplyResult> swapped = store_.SwapCompactedTable(
          req->spec.commit_id, std::move(req->replacement));
      if (!swapped.ok()) {
        resp->phase = CompactionResponseMsg::Phase::kDiscarded;
        resp->note = swapped.status().message();
      } else {
        resp->phase = CompactionResponseMsg::Phase::kApplied;
        resp->result = *swapped;
      }
      break;
    }
  }
  if (versions_live_ != nullptr) {
    versions_live_->Set(static_cast<int64_t>(store_.versions_live()));
  }
  Send(from, std::move(resp));
}

void WarehouseProcess::RetryHeld() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < held_.size(); ++i) {
      if (DependenciesMet(held_[i].submitter, held_[i].txn)) {
        InFlight txn = std::move(held_[i]);
        held_.erase(held_.begin() + static_cast<ptrdiff_t>(i));
        Admit(std::move(txn));
        progressed = true;
        break;
      }
    }
  }
}

const std::string* WarehouseProcess::ResolveView(ViewId view) const {
  MVC_CHECK(registry_ != nullptr) << "warehouse registry not wired";
  if (view < 0 || static_cast<size_t>(view) >= registry_->num_views()) {
    return nullptr;
  }
  return &registry_->ViewName(view);
}

void WarehouseProcess::ServeRead(ProcessId from, const ReadViewsMsg& read) {
  EnsureInitialVersion();
  auto resp = std::make_unique<ViewsSnapshotMsg>();
  resp->request_id = read.request_id;
  // Hand out an O(1) reference to a sealed version. The tables flatten
  // only at the reader/serialization boundary
  // (ViewsSnapshotMsg::TakeTables), never here on the warehouse actor.
  SnapshotHandle handle;
  if (read.as_of_commit >= 0) {
    Result<SnapshotHandle> at = store_.AcquireSnapshotAt(read.as_of_commit);
    if (!at.ok()) {
      // Clean failure: the version fell out of the retained window.
      resp->as_of_commit = read.as_of_commit;
      resp->error = at.status().message();
      Send(from, std::move(resp));
      return;
    }
    handle = *std::move(at);
  } else {
    handle = store_.AcquireSnapshot();
  }
  resp->as_of_commit = handle.commit_id();
  if (read.views.empty()) {
    for (const TableVersion& tv : handle.version().tables) {
      resp->view_names.push_back(tv.name);
    }
  } else {
    for (ViewId id : read.views) {
      const std::string* name = ResolveView(id);
      if (name == nullptr || handle.version().Find(*name) == nullptr) {
        resp->view_names.clear();
        resp->error = name == nullptr
                          ? StrCat("unknown view id ", id)
                          : StrCat("view '", *name, "' is not in the snapshot");
        Send(from, std::move(resp));
        return;
      }
      resp->view_names.push_back(*name);
    }
  }
  if (snapshot_bytes_shared_ != nullptr) {
    snapshot_bytes_shared_->Add(static_cast<int64_t>(handle.approx_bytes()));
  }
  resp->handle = std::move(handle);
  Send(from, std::move(resp));
}

void WarehouseProcess::ServeQuery(ProcessId from, const QueryViewMsg& query) {
  EnsureInitialVersion();
  auto resp = std::make_unique<QueryResultMsg>();
  resp->request_id = query.request_id;
  // Admission control: past the in-flight budget the query is rejected
  // at the door with an explicit shed notice — bounded occupancy, never
  // an unbounded queue, never a silent timeout.
  if (options_.max_inflight_queries > 0 &&
      inflight_queries_ >= options_.max_inflight_queries) {
    resp->shed = true;
    if (queries_shed_ != nullptr) queries_shed_->Add(1);
    Send(from, std::move(resp));
    return;
  }
  SnapshotHandle handle;
  if (query.as_of_commit >= 0) {
    Result<SnapshotHandle> at = store_.AcquireSnapshotAt(query.as_of_commit);
    if (!at.ok()) {
      resp->error = at.status().message();
      Send(from, std::move(resp));
      return;
    }
    handle = *std::move(at);
  } else {
    handle = store_.AcquireSnapshot();
  }
  const std::string* name = ResolveView(query.view);
  if (name == nullptr) {
    resp->error = StrCat("unknown view id ", query.view);
    Send(from, std::move(resp));
    return;
  }
  Result<ScanResult> scanned = ExecuteScan(handle, *name, query.query);
  if (!scanned.ok()) {
    resp->error = scanned.status().message();
    Send(from, std::move(resp));
    return;
  }
  resp->as_of_commit = handle.commit_id();
  resp->rows = std::move(scanned->rows);
  resp->matched_count = scanned->matched_count;
  resp->rows_scanned = scanned->rows_scanned;
  if (rows_scanned_ != nullptr) rows_scanned_->Record(resp->rows_scanned);
  const TimeMicros cost =
      options_.query_service_us +
      options_.query_cost_per_krow * (resp->rows_scanned / 1000);
  if (cost <= 0) {
    Send(from, std::move(resp));
    return;
  }
  // Modeled service time: the result is already computed against the
  // admission-time snapshot; only its delivery occupies an executor slot.
  ++inflight_queries_;
  const int64_t ticket = -(++next_query_ticket_);
  pending_queries_.emplace(ticket, PendingQuery{from, std::move(resp)});
  auto tick = std::make_unique<TickMsg>();
  tick->tag = ticket;
  ScheduleSelf(std::move(tick), cost);
}

void WarehouseProcess::OnMessage(ProcessId from, MessagePtr msg) {
  switch (msg->kind) {
    case Message::Kind::kWarehouseTxn: {
      auto* wt = static_cast<WarehouseTxnMsg*>(msg.get());
      InFlight in_flight{from, std::move(wt->txn)};
      TimeMicros delay = options_.apply_delay;
      if (options_.apply_jitter > 0) {
        delay += rng_.UniformInt(0, options_.apply_jitter);
      }
      if (delay == 0) {
        // Fast path: process synchronously (still honours dependencies).
        if (options_.honor_dependencies &&
            !DependenciesMet(in_flight.submitter, in_flight.txn)) {
          held_.push_back(std::move(in_flight));
        } else {
          Admit(std::move(in_flight));
          RetryHeld();
        }
        return;
      }
      const int64_t ticket = ++next_ticket_;
      processing_.emplace(ticket, std::move(in_flight));
      auto tick = std::make_unique<TickMsg>();
      tick->tag = ticket;
      ScheduleSelf(std::move(tick), delay);
      return;
    }
    case Message::Kind::kTick: {
      auto* tick = static_cast<TickMsg*>(msg.get());
      if (tick->tag == kFlushTag) {
        // Group-commit deadline: publish whatever is buffered.
        flush_scheduled_ = false;
        FlushBatch();
        return;
      }
      if (tick->tag < 0) {
        // Query service delay elapsed: release the executor slot and
        // deliver the precomputed result.
        auto pending = pending_queries_.find(tick->tag);
        MVC_CHECK(pending != pending_queries_.end());
        PendingQuery done = std::move(pending->second);
        pending_queries_.erase(pending);
        MVC_CHECK(inflight_queries_ > 0);
        --inflight_queries_;
        Send(done.requester, std::move(done.response));
        return;
      }
      auto it = processing_.find(tick->tag);
      MVC_CHECK(it != processing_.end());
      InFlight in_flight = std::move(it->second);
      processing_.erase(it);
      if (options_.honor_dependencies &&
          !DependenciesMet(in_flight.submitter, in_flight.txn)) {
        held_.push_back(std::move(in_flight));
      } else {
        Admit(std::move(in_flight));
        RetryHeld();
      }
      return;
    }
    case Message::Kind::kReadViews: {
      // Served inline by the single warehouse actor, so the snapshot is
      // atomic with respect to view-maintenance transactions.
      ServeRead(from, *static_cast<ReadViewsMsg*>(msg.get()));
      return;
    }
    case Message::Kind::kQueryView: {
      // Admission + execution are inline (atomic vs commits); only the
      // modeled service delay is asynchronous.
      ServeQuery(from, *static_cast<QueryViewMsg*>(msg.get()));
      return;
    }
    case Message::Kind::kCompactionRequest: {
      // Served inline by the single warehouse actor, like reads: each
      // apply is atomic with respect to commits by construction.
      ServeCompaction(from, static_cast<CompactionRequestMsg*>(msg.get()));
      return;
    }
    case Message::Kind::kCommitResyncRequest: {
      // A recovering merge process lost the acks delivered while it was
      // down; hand it the full committed set for its channel.
      auto* req = static_cast<CommitResyncRequestMsg*>(msg.get());
      auto resp = std::make_unique<CommitResyncResponseMsg>();
      resp->epoch = req->epoch;
      auto it = committed_.find(from);
      if (it != committed_.end()) {
        resp->committed.assign(it->second.begin(), it->second.end());
      }
      Send(from, std::move(resp));
      return;
    }
    default:
      MVC_LOG_ERROR() << "warehouse: unexpected message " << msg->Summary();
  }
}

}  // namespace mvc
