// Recording infrastructure for the consistency oracle and the freshness
// metrics.
//
// The recorder taps two streams:
//   * the integrator's numbered transaction stream (the canonical source
//     schedule S = U_1; U_2; ... of Section 2.1), and
//   * the warehouse's commit stream: every committed transaction with
//     its action lists, in commit order.
//
// It holds no view contents. The checker (checker.h) rebuilds the
// warehouse state sequence Wseq by replaying the committed action lists
// onto flat tables, replays the source stream against the initial
// source state, and decides whether the pair satisfies the paper's
// convergence / strong-consistency / completeness definitions.

#pragma once

#include <map>
#include <mutex>  // mvc-lint: allow-sync -- concurrent integrator shards on the ThreadRuntime feed one recorder
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/runtime.h"

namespace mvc {

struct RecordedUpdate {
  UpdateId id = 0;
  SourceTransaction txn;
  TimeMicros numbered_at = 0;
};

struct RecordedCommit {
  ProcessId submitter = kInvalidProcess;
  WarehouseTransaction txn;
  TimeMicros committed_at = 0;
};

/// Per-update propagation delay: commit time of the first warehouse
/// transaction reflecting the update, minus its numbering time.
struct FreshnessStats {
  int64_t updates_reflected = 0;
  double mean_lag_micros = 0;
  TimeMicros max_lag_micros = 0;

  std::string ToString() const;
};

class ConsistencyRecorder {
 public:
  /// When `content_checks` is off, commits are still logged but the
  /// checker refuses to judge contents (SystemConfig::record_snapshots
  /// also turns off collect_covered, so action lists then lack the
  /// covered-update lists the duplicate-AL check relies on).
  explicit ConsistencyRecorder(bool content_checks = true)
      : content_checks_(content_checks) {}

  /// Movable for wiring-time installation (WarehouseSystem::Wire runs
  /// single-threaded, before any observer can fire); the mutex itself
  /// is not moved.
  ConsistencyRecorder(ConsistencyRecorder&& other) noexcept
      : content_checks_(other.content_checks_),
        updates_(std::move(other.updates_)),
        commits_(std::move(other.commits_)) {}
  ConsistencyRecorder& operator=(ConsistencyRecorder&& other) noexcept {
    content_checks_ = other.content_checks_;
    updates_ = std::move(other.updates_);
    commits_ = std::move(other.commits_);
    return *this;
  }

  /// Integrator observer (see IntegratorProcess::SetUpdateObserver).
  /// Under sharded ingest several integrator shards call this
  /// concurrently on the ThreadRuntime — the lock makes the append
  /// atomic; the checker reorders by update id anyway, so arrival order
  /// across shards carries no meaning.
  void OnUpdateNumbered(UpdateId id, const SourceTransaction& txn,
                        TimeMicros now) {
    std::lock_guard<std::mutex> lock(updates_mutex_);
    updates_.push_back(RecordedUpdate{id, txn, now});
  }

  /// Warehouse observer (see WarehouseProcess::SetCommitObserver).
  void OnCommit(ProcessId submitter, const WarehouseTransaction& txn,
                TimeMicros now) {
    commits_.push_back(RecordedCommit{submitter, txn, now});
  }

  const std::vector<RecordedUpdate>& updates() const { return updates_; }
  const std::vector<RecordedCommit>& commits() const { return commits_; }
  bool content_checks() const { return content_checks_; }

  /// Freshness over all updates reflected by some commit.
  FreshnessStats ComputeFreshness() const;

 private:
  bool content_checks_;
  /// Guards updates_ against concurrent shard observers. updates() is
  /// only read after the runtime quiesces, so the accessor stays bare.
  std::mutex updates_mutex_;
  std::vector<RecordedUpdate> updates_;
  std::vector<RecordedCommit> commits_;
};

}  // namespace mvc
