#include "consistency/checker.h"

#include <algorithm>

#include "common/string_util.h"
#include "query/evaluator.h"
#include "query/relevance.h"

namespace mvc {

namespace {

/// Signed multiset replay state for one relation. Updates that are
/// invisible to every view (pruned) never enter the commit chain, so a
/// chain update may legally delete a tuple the replay has not inserted —
/// the tuple is invisible and its count simply goes negative. Only
/// non-positive-count rows are dropped at materialization; by pruning
/// soundness they cannot contribute to any view.
class SignedBag {
 public:
  explicit SignedBag(const Table& initial) : schema_(initial.schema()) {
    initial.ForEachRow([&](const Tuple& t, int64_t c) { counts_[t] += c; });
  }

  void Apply(const TableDelta& delta) {
    for (const DeltaRow& row : delta.rows) {
      counts_[row.tuple] += row.count;
    }
  }

  Table Materialize(const std::string& name) const {
    Table out(name, schema_);
    for (const auto& [tuple, count] : counts_) {
      if (count > 0) MVC_CHECK(out.Insert(tuple, count).ok());
    }
    return out;
  }

 private:
  Schema schema_;
  std::unordered_map<Tuple, int64_t, TupleHash> counts_;
};

/// All relations' signed replay state; materializes into a Catalog for
/// view evaluation.
class SignedBase {
 public:
  explicit SignedBase(const Catalog& initial) {
    for (const std::string& name : initial.TableNames()) {
      bags_.emplace(name, SignedBag(**initial.GetTable(name)));
    }
  }

  void ApplyUpdate(const Update& update) {
    auto it = bags_.find(update.relation);
    if (it == bags_.end()) return;  // relation unused by any view
    it->second.Apply(ViewEvaluator::UpdateToBaseDelta(update));
  }

  Catalog Materialize() const {
    Catalog out;
    for (const auto& [name, bag] : bags_) {
      Table t = bag.Materialize(name);
      MVC_CHECK(out.CreateTable(name, t.schema()).ok());
      Table* dest = *out.GetTable(name);
      t.ForEachRow([&](const Tuple& tuple, int64_t c) {
        MVC_CHECK(dest->Insert(tuple, c).ok());
      });
    }
    return out;
  }

 private:
  std::map<std::string, SignedBag> bags_;
};

}  // namespace

ConsistencyChecker::ConsistencyChecker(std::vector<CheckedView> views,
                                       const Catalog& initial_base,
                                       CheckerOptions options)
    : views_(std::move(views)),
      initial_base_(initial_base),
      options_(options) {}

ConsistencyChecker::ConsistencyChecker(std::vector<const BoundView*> views,
                                       const Catalog& initial_base,
                                       CheckerOptions options)
    : initial_base_(initial_base), options_(options) {
  for (const BoundView* view : views) {
    views_.push_back(CheckedView{view, nullptr});
  }
}

const std::string* ConsistencyChecker::ViewName(ViewId id) const {
  if (options_.registry != nullptr) {
    if (id < 0 || static_cast<size_t>(id) >= options_.registry->num_views()) {
      return nullptr;
    }
    const std::string& name = options_.registry->ViewName(id);
    for (const CheckedView& cv : views_) {
      if (cv.view->name() == name) return &cv.view->name();
    }
    return nullptr;
  }
  if (id < 0 || static_cast<size_t>(id) >= views_.size()) return nullptr;
  return &views_[static_cast<size_t>(id)].view->name();
}

std::string ConsistencyChecker::ViewLabel(ViewId id) const {
  const std::string* name = ViewName(id);
  return name != nullptr ? *name : StrCat("V#", id);
}

std::set<std::string> ConsistencyChecker::RelevantViews(
    const SourceTransaction& txn) const {
  std::set<std::string> rel;
  for (const CheckedView& cv : views_) {
    for (const Update& u : txn.updates) {
      bool relevant = options_.relevance_pruning
                          ? UpdateIsRelevant(*cv.view, u)
                          : cv.view->RelationIndex(u.relation).has_value();
      if (relevant) {
        rel.insert(cv.view->name());
        break;
      }
    }
  }
  return rel;
}

Result<Table> ConsistencyChecker::Evaluate(
    const CheckedView& cv, const TableProviderFn& provider) const {
  return cv.aggregate != nullptr
             ? EvaluateAggregate(*cv.view, *cv.aggregate, provider,
                                 cv.view->name())
             : ViewEvaluator::Evaluate(*cv.view, provider);
}

Status ConsistencyChecker::CompareViews(const Catalog& base,
                                        const Catalog& views,
                                        const std::string& context) const {
  TableProviderFn provider = CatalogProvider(&base);
  for (const CheckedView& cv : views_) {
    Result<Table> expected = Evaluate(cv, provider);
    MVC_RETURN_IF_ERROR(expected.status());
    MVC_ASSIGN_OR_RETURN(const Table* actual, views.GetTable(cv.view->name()));
    if (!expected->ContentsEqual(*actual)) {
      return Status::ConsistencyViolation(
          StrCat(context, ": view '", cv.view->name(),
                 "' does not reflect the mapped source state.\nExpected:\n",
                 expected->ToString(), "Actual:\n", actual->ToString()));
    }
  }
  return Status::OK();
}

Status ConsistencyChecker::CompareStore(const Catalog& views) const {
  if (options_.store == nullptr) return Status::OK();
  const SnapshotHandle latest = options_.store->AcquireSnapshot();
  for (const CheckedView& cv : views_) {
    const std::string& name = cv.view->name();
    MVC_ASSIGN_OR_RETURN(const Table* expected, views.GetTable(name));
    const TableVersion* actual = latest.version().Find(name);
    bool equal = actual != nullptr &&
                 actual->distinct == expected->NumDistinct() &&
                 actual->total_count == expected->NumRows();
    if (equal) {
      expected->ForEachRow([&](const Tuple& t, int64_t c) {
        equal = equal && actual->CountOf(t) == c;
      });
    }
    if (!equal) {
      return Status::ConsistencyViolation(StrCat(
          "store version @commit ", latest.commit_id(), ": view '", name,
          "' differs from the replayed action lists.\nExpected:\n",
          expected->ToString(), "Actual:\n",
          actual != nullptr ? actual->Materialize().ToString()
                            : std::string("(missing)\n")));
    }
  }
  return Status::OK();
}

Result<Catalog> ConsistencyChecker::ReplayWarehouseStates(
    const ConsistencyRecorder& recorder,
    const std::function<Status(int64_t, const Catalog&)>& visit) const {
  // W_0: what WarehouseSystem installs before the first commit.
  TableProviderFn provider = CatalogProvider(&initial_base_);
  Catalog views;
  for (const CheckedView& cv : views_) {
    MVC_ASSIGN_OR_RETURN(Table contents, Evaluate(cv, provider));
    MVC_RETURN_IF_ERROR(views.CreateTable(cv.view->name(), contents.schema()));
    **views.GetTable(cv.view->name()) = std::move(contents);
  }
  if (visit) MVC_RETURN_IF_ERROR(visit(0, views));
  for (size_t j = 0; j < recorder.commits().size(); ++j) {
    for (const ActionList& al : recorder.commits()[j].txn.actions) {
      const std::string* name = ViewName(al.view);
      if (name == nullptr) {
        return Status::ConsistencyViolation(
            StrCat("commit #", j, " carries an action list for unknown view ",
                   ViewLabel(al.view)));
      }
      MVC_ASSIGN_OR_RETURN(Table * table, views.GetTable(*name));
      if (al.replace_all) table->Clear();
      Status st = al.delta.ApplyTo(table);
      if (!st.ok()) {
        return Status::ConsistencyViolation(
            StrCat("commit #", j, ": action list for view '", *name,
                   "' does not apply: ", st.message()));
      }
    }
    if (visit) MVC_RETURN_IF_ERROR(visit(static_cast<int64_t>(j) + 1, views));
  }
  return views;
}

Status ConsistencyChecker::CheckConvergent(
    const ConsistencyRecorder& recorder) const {
  if (!recorder.content_checks()) {
    return Status::FailedPrecondition(
        "convergence check requires a content-checking recorder");
  }
  MVC_ASSIGN_OR_RETURN(Catalog views, ReplayWarehouseStates(recorder, {}));
  if (recorder.commits().empty()) {
    // No commits: converged iff no update affects any view.
    for (const RecordedUpdate& u : recorder.updates()) {
      if (!RelevantViews(u.txn).empty()) {
        return Status::ConsistencyViolation(
            StrCat("update U", u.id,
                   " affects views but the warehouse never committed"));
      }
    }
  } else {
    SignedBase base(initial_base_);
    for (const RecordedUpdate& u : recorder.updates()) {
      for (const Update& upd : u.txn.updates) base.ApplyUpdate(upd);
    }
    MVC_RETURN_IF_ERROR(
        CompareViews(base.Materialize(), views, "final state"));
  }
  return CompareStore(views);
}

Status ConsistencyChecker::CheckChain(const ConsistencyRecorder& recorder,
                                      bool require_single_steps,
                                      bool require_final_coverage) const {
  if (!recorder.content_checks()) {
    return Status::FailedPrecondition(
        "consistency check requires a content-checking recorder");
  }

  // Index the numbered source schedule. A duplicate update number is a
  // total-order violation on its own: under sharded ingest it means a
  // shard stamped a shard-local epoch without drawing the cross-shard
  // ticket, so two distinct transactions claim the same position in S.
  std::map<UpdateId, const RecordedUpdate*> by_id;
  for (const RecordedUpdate& u : recorder.updates()) {
    auto [it, inserted] = by_id.emplace(u.id, &u);
    if (!inserted) {
      return Status::ConsistencyViolation(StrCat(
          "update number U", u.id, " was issued to two source "
          "transactions (shard ", it->second->txn.shard, " epoch ",
          it->second->txn.shard_epoch, " vs shard ", u.txn.shard,
          " epoch ", u.txn.shard_epoch,
          "): a cross-shard ticket was dropped"));
    }
  }

  // Precompute REL sets for the legality check.
  std::map<UpdateId, std::set<std::string>> rel;
  for (const RecordedUpdate& u : recorder.updates()) {
    rel[u.id] = RelevantViews(u.txn);
  }

  // (view, update) pairs whose action-list delta reached the warehouse —
  // the crash-recovery hazard: a replayed or resynced AL applied twice
  // corrupts the view even when the applied-update chain looks legal.
  std::set<std::pair<ViewId, UpdateId>> applied_pairs;
  for (size_t j = 0; j < recorder.commits().size(); ++j) {
    for (const ActionList& al : recorder.commits()[j].txn.actions) {
      std::vector<UpdateId> ids = al.covered;
      if (ids.empty()) ids.push_back(al.update);
      for (UpdateId id : ids) {
        if (!applied_pairs.insert({al.view, id}).second) {
          return Status::ConsistencyViolation(
              StrCat("commit #", j, " applies U", id, " to view ",
                     ViewLabel(al.view),
                     " a second time (duplicate action list across a crash"
                     " or resync boundary)"));
        }
      }
    }
  }

  SignedBase base(initial_base_);
  std::set<UpdateId> applied;
  Result<Catalog> views = ReplayWarehouseStates(
      recorder, [&](int64_t k, const Catalog& state) -> Status {
        if (k == 0) return Status::OK();
        const size_t j = static_cast<size_t>(k) - 1;
        const RecordedCommit& commit = recorder.commits()[j];
        std::vector<UpdateId> fresh;
        for (UpdateId id : commit.txn.rows) {
          if (applied.count(id) == 0) fresh.push_back(id);
        }
        std::sort(fresh.begin(), fresh.end());

        if (require_single_steps && fresh.size() != 1) {
          return Status::ConsistencyViolation(StrCat(
              "commit #", j, " (", commit.txn.ToString(), ") advances by ",
              fresh.size(), " updates; completeness requires exactly 1"));
        }

        for (UpdateId id : fresh) {
          auto it = by_id.find(id);
          if (it == by_id.end()) {
            return Status::ConsistencyViolation(
                StrCat("commit #", j, " claims unknown update U", id));
          }
          // Legality: every earlier update sharing a view must already be
          // in the chain (otherwise the implied schedule is not
          // equivalent to S: two dependent updates would be reordered).
          for (const auto& [other_id, other_rel] : rel) {
            if (other_id >= id || applied.count(other_id) > 0) continue;
            if (std::find(fresh.begin(), fresh.end(), other_id) !=
                    fresh.end() &&
                other_id < id) {
              continue;  // entering in the same commit, ordered by id
            }
            bool overlap = false;
            for (const std::string& v : rel[id]) {
              if (other_rel.count(v) > 0) {
                overlap = true;
                break;
              }
            }
            if (overlap) {
              return Status::ConsistencyViolation(
                  StrCat("commit #", j, " applies U", id,
                         " before dependent U", other_id, " (shared view)"));
            }
          }
          // Advance the replayed base state.
          for (const Update& upd : it->second->txn.updates) {
            base.ApplyUpdate(upd);
          }
          applied.insert(id);
        }

        return CompareViews(base.Materialize(), state,
                            StrCat("commit #", j, " (rows [",
                                   JoinToString(commit.txn.rows, ","), "])"));
      });
  MVC_RETURN_IF_ERROR(views.status());

  // Final coverage: every update that affects some view must be applied,
  // and the store readers see must hold the replayed end state. Only
  // meaningful at quiescence — a run prefix legitimately has in-flight
  // updates, so CheckPrefix skips this clause.
  if (require_final_coverage) {
    for (const RecordedUpdate& u : recorder.updates()) {
      if (!rel[u.id].empty() && applied.count(u.id) == 0) {
        return Status::ConsistencyViolation(
            StrCat("update U", u.id, " affects views [",
                   JoinToString(rel[u.id], ","),
                   "] but was never reflected at the warehouse"));
      }
    }
    MVC_RETURN_IF_ERROR(CompareStore(*views));
  }
  return Status::OK();
}

Status ConsistencyChecker::CheckStrong(
    const ConsistencyRecorder& recorder) const {
  return CheckChain(recorder, /*require_single_steps=*/false,
                    /*require_final_coverage=*/true);
}

Status ConsistencyChecker::CheckComplete(
    const ConsistencyRecorder& recorder) const {
  return CheckChain(recorder, /*require_single_steps=*/true,
                    /*require_final_coverage=*/true);
}

Status ConsistencyChecker::CheckPrefix(const ConsistencyRecorder& recorder,
                                       bool require_single_steps) const {
  return CheckChain(recorder, require_single_steps,
                    /*require_final_coverage=*/false);
}

}  // namespace mvc
