// The MVC consistency oracle: decides whether a recorded run satisfies
// the paper's formal definitions (Section 2), generalized the way the
// definitions intend — the warehouse may reflect *any* serializable
// schedule equivalent to the source schedule S, not only S itself
// ("there exists a consistent source state sequence").
//
// Method. The warehouse state sequence W_0, W_1, ... is rebuilt from the
// recording: W_0 is every view evaluated over the initial base (what
// WarehouseSystem installs), and W_j applies commit j's action lists to
// W_{j-1} on flat tables (replace_all clears first) — the computation
// the warehouse performs on its store. Only the current state is held,
// so the oracle's memory is O(views), not O(commits x views). Each
// committed warehouse transaction declares the set of updates it folds
// in (its VUT rows). Cumulatively unioning them gives a chain
// A_1 ⊆ A_2 ⊆ ... of applied-update sets. The run is
//
//   * MVC strongly consistent iff
//       (content)   after every commit, every view's contents in W_j
//                   equal the view evaluated over initial-state ∪
//                   {base deltas of A_j} — i.e. all views reflect one
//                   common source state of an equivalent schedule;
//       (legality)  the chain respects dependent-update order: if two
//                   updates affect a common view, the earlier one never
//                   enters the chain after the later one (this is what
//                   makes the reordered schedule equivalent to S);
//       (final)     after the last commit the chain contains every
//                   update that affects any view, contents match, and
//                   the warehouse store's latest published version
//                   equals the replayed end state (when a store is
//                   configured) — so the state readers see is checked.
//   * MVC complete iff additionally every commit grows the chain by
//     exactly one update (every source state is walked through).
//   * MVC convergent iff at least the final contents match, in the
//     replay and in the store (intermediate commits unconstrained).
//
// Content checks need a recorder constructed with content_checks = true.

#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "consistency/recorder.h"
#include "query/aggregate.h"
#include "query/evaluator.h"
#include "query/view_def.h"
#include "storage/catalog.h"
#include "storage/id_registry.h"
#include "storage/versioned_store.h"

namespace mvc {

struct CheckerOptions {
  /// Must match the integrator's relevance_pruning setting so the
  /// oracle computes the same REL sets.
  bool relevance_pruning = true;
  /// Resolves ViewIds in recorded action lists to view names; when null,
  /// ViewIds index the checked views in order.
  const IdRegistry* registry = nullptr;
  /// The warehouse store. When set, the final-state clauses also compare
  /// its latest published version, read in place, against the replayed
  /// end state; null skips that comparison (recordings with no
  /// warehouse behind them).
  const VersionedStore* store = nullptr;
};

/// One warehouse view as the oracle evaluates it: an SPJ core plus an
/// optional aggregate layered on top.
struct CheckedView {
  const BoundView* view = nullptr;
  const AggregateSpec* aggregate = nullptr;
};

class ConsistencyChecker {
 public:
  /// `views` (and any aggregate specs) must outlive the checker.
  /// `initial_base` holds the initial contents of every base relation
  /// (all sources combined; relation names are globally unique).
  ConsistencyChecker(std::vector<CheckedView> views,
                     const Catalog& initial_base,
                     CheckerOptions options = {});

  /// Convenience for plain SPJ views.
  ConsistencyChecker(std::vector<const BoundView*> views,
                     const Catalog& initial_base,
                     CheckerOptions options = {});

  /// Convergence: the final warehouse state reflects the final source
  /// state.
  Status CheckConvergent(const ConsistencyRecorder& recorder) const;

  /// Strong MVC consistency (content + legality + final), per above.
  Status CheckStrong(const ConsistencyRecorder& recorder) const;

  /// MVC completeness: strong, plus single-update steps covering every
  /// relevant update.
  Status CheckComplete(const ConsistencyRecorder& recorder) const;

  /// Re-entry oracle for the schedule explorer: validates a run *prefix*
  /// (duplicate-AL detection, chain legality, per-commit contents) while
  /// skipping the final-coverage requirement — mid-run, updates that
  /// affect views may simply not have reached the warehouse yet. A
  /// violation reported here is a violation of every extension of the
  /// prefix, which is what makes it usable after every delivery.
  Status CheckPrefix(const ConsistencyRecorder& recorder,
                     bool require_single_steps) const;

  /// Rebuilds the warehouse state sequence W_0, W_1, ... (see the file
  /// comment), hands each state to `visit` (if set) in commit order with
  /// the number of commits applied so far, and returns the end state.
  /// Stops at the first non-OK status, from `visit` or from an action
  /// list that does not apply.
  Result<Catalog> ReplayWarehouseStates(
      const ConsistencyRecorder& recorder,
      const std::function<Status(int64_t commits, const Catalog& views)>&
          visit) const;

 private:
  /// REL of one transaction under the configured relevance test.
  std::set<std::string> RelevantViews(const SourceTransaction& txn) const;

  /// One view evaluated over `provider` (aggregate on top if any).
  Result<Table> Evaluate(const CheckedView& cv,
                         const TableProviderFn& provider) const;

  /// Evaluates every view over `base` and compares with `views`.
  Status CompareViews(const Catalog& base, const Catalog& views,
                      const std::string& context) const;

  /// Compares the store's latest version with the replayed end state
  /// (OK when no store is configured).
  Status CompareStore(const Catalog& views) const;

  Status CheckChain(const ConsistencyRecorder& recorder,
                    bool require_single_steps,
                    bool require_final_coverage) const;

  /// Name of the checked view an action list targets; nullptr when the
  /// id resolves to none.
  const std::string* ViewName(ViewId id) const;

  /// "V#<id>" or the view's name when it resolves.
  std::string ViewLabel(ViewId id) const;

  std::vector<CheckedView> views_;
  const Catalog& initial_base_;
  CheckerOptions options_;
};

}  // namespace mvc
