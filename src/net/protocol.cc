#include "net/protocol.h"

#include <sstream>

#include "common/string_util.h"
#include "net/runtime.h"

namespace mvc {

const char* MessageKindToString(Message::Kind kind) {
  switch (kind) {
    case Message::Kind::kSourceTxn:
      return "SourceTxn";
    case Message::Kind::kUpdate:
      return "Update";
    case Message::Kind::kRelSet:
      return "RelSet";
    case Message::Kind::kActionList:
      return "ActionList";
    case Message::Kind::kWarehouseTxn:
      return "WarehouseTxn";
    case Message::Kind::kTxnCommitted:
      return "TxnCommitted";
    case Message::Kind::kQueryRequest:
      return "QueryRequest";
    case Message::Kind::kQueryResponse:
      return "QueryResponse";
    case Message::Kind::kTick:
      return "Tick";
    case Message::Kind::kInjectTxn:
      return "InjectTxn";
    case Message::Kind::kReadViews:
      return "ReadViews";
    case Message::Kind::kViewsSnapshot:
      return "ViewsSnapshot";
    case Message::Kind::kCrash:
      return "Crash";
    case Message::Kind::kRecover:
      return "Recover";
    case Message::Kind::kReplayRequest:
      return "ReplayRequest";
    case Message::Kind::kReplayResponse:
      return "ReplayResponse";
    case Message::Kind::kRelResyncRequest:
      return "RelResyncRequest";
    case Message::Kind::kRelResyncResponse:
      return "RelResyncResponse";
    case Message::Kind::kAlResyncRequest:
      return "AlResyncRequest";
    case Message::Kind::kAlResyncResponse:
      return "AlResyncResponse";
    case Message::Kind::kCommitResyncRequest:
      return "CommitResyncRequest";
    case Message::Kind::kCommitResyncResponse:
      return "CommitResyncResponse";
    case Message::Kind::kCompactionStats:
      return "CompactionStats";
    case Message::Kind::kCompactionRequest:
      return "CompactionRequest";
    case Message::Kind::kCompactionResponse:
      return "CompactionResponse";
    case Message::Kind::kQueryView:
      return "QueryView";
    case Message::Kind::kQueryResult:
      return "QueryResult";
  }
  return "?";
}

std::string MessageStats::ToString() const {
  std::ostringstream os;
  os << "messages=" << total_messages;
  for (const auto& [kind, count] : by_kind) {
    os << " " << kind << "=" << count;
  }
  return os.str();
}

std::string ActionList::ToString(const IdRegistry* names) const {
  std::ostringstream os;
  os << "AL(";
  if (names != nullptr) {
    os << names->ViewName(view);
  } else {
    os << "V#" << view;
  }
  os << ", U" << update;
  if (first_update != update) os << " covering U" << first_update << "..";
  os << ", " << delta.rows.size() << " actions)";
  return os.str();
}

std::string WarehouseTransaction::ToString(const IdRegistry* names) const {
  std::ostringstream os;
  os << "WT" << txn_id << "(rows=[" << JoinToString(rows, ",") << "], views=[";
  if (names != nullptr) {
    for (size_t i = 0; i < views.size(); ++i) {
      if (i > 0) os << ",";
      os << names->ViewName(views[i]);
    }
  } else {
    os << JoinToString(views, ",");
  }
  os << "], " << actions.size() << " ALs";
  if (!depends_on.empty()) os << ", deps=[" << JoinToString(depends_on, ",") << "]";
  os << ")";
  return os.str();
}

std::string SourceTxnMsg::Summary() const { return txn.ToString(); }

std::string UpdateMsg::Summary() const {
  if (shard != 0) {
    return StrCat("U", update_id, "@s", shard, " ", txn.ToString());
  }
  return StrCat("U", update_id, " ", txn.ToString());
}

std::string RelSetMsg::Summary() const {
  if (shard != 0) {
    return StrCat("REL", update_id, "@s", shard, "={",
                  JoinToString(views, ","), "}");
  }
  return StrCat("REL", update_id, "={", JoinToString(views, ","), "}");
}

std::string ActionListMsg::Summary() const { return al.ToString(); }

std::string WarehouseTxnMsg::Summary() const { return txn.ToString(); }

std::string TxnCommittedMsg::Summary() const {
  return StrCat("committed WT", txn_id);
}

std::string QueryRequestMsg::Summary() const {
  return StrCat("query R#", relation,
                as_of_state >= 0 ? StrCat(" @state ", as_of_state) : "");
}

std::string QueryResponseMsg::Summary() const {
  return StrCat("answer R#", relation, " @state ", state, " (",
                snapshot.NumRows(), " rows)");
}

std::string TickMsg::Summary() const { return StrCat("tick ", tag); }

std::string ReadViewsMsg::Summary() const {
  return StrCat("read views [", JoinToString(views, ","), "]");
}

std::vector<Table> ViewsSnapshotMsg::TakeTables() {
  std::vector<Table> tables;
  if (!handle.valid()) return tables;
  tables.reserve(view_names.size());
  for (const std::string& name : view_names) {
    Result<Table> table = handle.MaterializeTable(name);
    MVC_CHECK(table.ok()) << table.status().ToString();
    tables.push_back(*std::move(table));
  }
  return tables;
}

std::string ViewsSnapshotMsg::Summary() const {
  if (!ok()) return StrCat("snapshot error: ", error);
  return StrCat("snapshot of ", view_names.size(), " views @commit ",
                as_of_commit);
}

std::string QueryViewMsg::Summary() const {
  return StrCat("query V#", view, ": ", query.Summary(),
                as_of_commit >= 0 ? StrCat(" @commit ", as_of_commit) : "");
}

std::string QueryResultMsg::Summary() const {
  if (shed) return StrCat("query shed (req ", request_id, ")");
  if (!error.empty()) return StrCat("query error: ", error);
  return StrCat("query result: ", rows.size(), " rows (matched ",
                matched_count, ") @commit ", as_of_commit);
}

std::string InjectTxnMsg::Summary() const {
  return StrCat("inject ", updates.size(), " updates");
}

std::string CrashMsg::Summary() const { return "crash"; }

std::string RecoverMsg::Summary() const { return "recover"; }

std::string ReplayRequestMsg::Summary() const {
  return StrCat("replay V#", view, " after U", after, " (epoch ", epoch, ")");
}

std::string ReplayResponseMsg::Summary() const {
  return StrCat("replay of ", updates.size(), " updates (epoch ", epoch,
                ")");
}

std::string RelResyncRequestMsg::Summary() const {
  return StrCat("rel resync after U", after, " (epoch ", epoch, ")");
}

std::string RelResyncResponseMsg::Summary() const {
  return StrCat("rel resync of ", rels.size(), " entries (epoch ", epoch,
                ")");
}

std::string AlResyncRequestMsg::Summary() const {
  return StrCat("AL resync V#", view, " after U", after, " (epoch ", epoch,
                ")");
}

std::string AlResyncResponseMsg::Summary() const {
  return StrCat("AL resync V#", view, ": ", action_lists.size(),
                " lists (epoch ", epoch, ")");
}

std::string CommitResyncRequestMsg::Summary() const {
  return StrCat("commit resync (epoch ", epoch, ")");
}

std::string CommitResyncResponseMsg::Summary() const {
  return StrCat("commit resync of ", committed.size(), " txns (epoch ",
                epoch, ")");
}

}  // namespace mvc
