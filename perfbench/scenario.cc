#include "scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"
#include "common/string_util.h"
#include "query/evaluator.h"
#include "query/relevance.h"

namespace perfbench {
namespace {

/// The join domain matches the relation size, so view sizes stay bounded.
mvc::WorkloadSpec Shape(int views, int rows) {
  mvc::WorkloadSpec spec;
  spec.num_sources = 2;
  spec.relations_per_source = 2;
  spec.num_views = views;
  spec.max_view_width = 3;
  spec.initial_rows_per_relation = rows;
  spec.join_domain = rows;
  spec.modify_fraction = 0.10;
  return spec;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // View-manager delta evaluation dominates; the single-threaded,
  // deterministic schedule repeats well.
  Workload maintain;
  maintain.name = "maintain";
  maintain.spec = Shape(8, 2000);
  maintain.batch = 2000;
  all.push_back(maintain);

  // The same stream through the self-maintaining group managers
  // (src/maint), which otherwise go unmeasured.
  Workload shared = maintain;
  shared.name = "maintain_shared";
  shared.self_maintain = true;
  all.push_back(shared);

  // Tiny relations: runtime hops, integrator, merge and the warehouse
  // commit dominate.
  Workload ingest;
  ingest.name = "ingest";
  ingest.threads = true;
  ingest.spec = Shape(4, 100);
  ingest.updates_per_s = 2000;
  ingest.round_s = 0.5;
  all.push_back(ingest);

  // Reads beside writes on the one warehouse actor, with compaction on.
  Workload serve;
  serve.name = "serve";
  serve.threads = true;
  serve.spec = Shape(4, 2000);
  serve.updates_per_s = 500;
  serve.round_s = 2;
  serve.readers = 2;
  serve.reads_per_s_per_reader = 1000;
  serve.retained_versions = 64;
  all.push_back(serve);
  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

/// Seed of the generated warehouse (schema, views, initial data), fixed
/// for every run: view shapes drawn per seed would swing the cost
/// several-fold, so the run seed varies only the update stream and reads.
constexpr uint64_t kWarehouseSeed = 42;

/// An independent stream per (run seed, round, purpose).
uint64_t SubSeed(uint64_t seed, int round, uint64_t purpose) {
  return (seed * 1000003 + static_cast<uint64_t>(round)) * 0x9E3779B97F4A7C15ULL +
         purpose;
}

/// The fixed warehouse of a workload, generated once.
const mvc::SystemConfig& Warehouse(const Workload& w) {
  static std::map<std::string, mvc::SystemConfig> cache;
  auto it = cache.find(w.name);
  if (it == cache.end()) {
    mvc::WorkloadSpec spec = w.spec;
    spec.seed = kWarehouseSeed;
    spec.num_transactions = 0;
    mvc::Result<mvc::SystemConfig> generated = mvc::GenerateScenario(spec);
    MVC_CHECK(generated.ok()) << generated.status().ToString();
    it = cache.emplace(w.name, std::move(*generated)).first;
  }
  return it->second;
}

/// The seeded update stream: one single-update transaction per arrival on
/// a uniformly chosen relation; a tenth are modifies, and the rest insert
/// or delete so that every relation holds its initial size (a random walk
/// of sizes would drift the per-update cost within a round and between
/// seeds). Arrivals are Poisson at w.updates_per_s, or all due at once.
std::vector<mvc::Injection> MakeStream(const Workload& w,
                                       const mvc::SystemConfig& base,
                                       uint64_t seed) {
  struct Relation {
    std::string name;
    std::string source;
    std::vector<mvc::Tuple> rows;
    size_t target = 0;
  };
  std::vector<Relation> relations;
  for (const auto& [source, names] : base.sources) {
    for (const std::string& name : names) {
      Relation r{name, source, base.initial_data.at(name), 0};
      r.target = r.rows.size();
      relations.push_back(std::move(r));
    }
  }
  mvc::Rng rng(seed);
  auto random_tuple = [&] {
    return mvc::Tuple{mvc::Value(rng.UniformInt(0, w.spec.join_domain - 1)),
                      mvc::Value(rng.UniformInt(0, w.spec.value_domain - 1))};
  };
  auto take = [&](Relation& r) {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(r.rows.size()) - 1));
    std::swap(r.rows[i], r.rows.back());
    mvc::Tuple t = std::move(r.rows.back());
    r.rows.pop_back();
    return t;
  };
  const int count =
      w.threads ? static_cast<int>(std::lround(w.updates_per_s * w.round_s))
                : w.batch;
  std::vector<mvc::Injection> stream;
  double at = 0;
  for (int i = 0; i < count; ++i) {
    if (w.threads) at += rng.Exponential(1e6 / w.updates_per_s);
    Relation& r = relations[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(relations.size()) - 1))];
    mvc::Injection inj;
    inj.at = static_cast<mvc::TimeMicros>(at);
    inj.source = r.source;
    const bool modify = rng.UniformDouble(0.0, 1.0) < w.spec.modify_fraction;
    if (!r.rows.empty() && modify) {
      mvc::Tuple before = take(r);
      mvc::Tuple after = random_tuple();
      r.rows.push_back(after);
      inj.updates.push_back(
          mvc::Update::Modify(r.source, r.name, std::move(before), after));
    } else if (!r.rows.empty() &&
               (r.rows.size() > r.target ||
                (r.rows.size() == r.target && rng.Bernoulli(0.5)))) {
      inj.updates.push_back(mvc::Update::Delete(r.source, r.name, take(r)));
    } else {
      mvc::Tuple t = random_tuple();
      r.rows.push_back(t);
      inj.updates.push_back(mvc::Update::Insert(r.source, r.name, t));
    }
    stream.push_back(std::move(inj));
  }
  return stream;
}

mvc::Status ApplyUpdate(const mvc::Update& u, mvc::Catalog* base) {
  MVC_ASSIGN_OR_RETURN(mvc::Table * table, base->GetTable(u.relation));
  switch (u.op) {
    case mvc::UpdateOp::kInsert:
      return table->Insert(u.tuple);
    case mvc::UpdateOp::kDelete:
      return table->Delete(u.tuple);
    case mvc::UpdateOp::kModify:
      return table->Modify(u.tuple, u.new_tuple);
  }
  return mvc::Status::InvalidArgument("unknown update op");
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

std::string DescribeWorkload(const Workload& w) {
  const mvc::WorkloadSpec& s = w.spec;
  std::ostringstream out;
  out << "{\"runtime\": \"" << (w.threads ? "thread" : "sim-executor")
      << "\", \"loop\": \"" << (w.threads ? "open" : "closed-batch")
      << "\", \"warehouse_seed\": " << kWarehouseSeed
      << ", \"sources\": " << s.num_sources
      << ", \"relations\": " << s.num_sources * s.relations_per_source
      << ", \"views\": " << s.num_views
      << ", \"max_view_width\": " << s.max_view_width
      << ", \"rows_per_relation\": " << s.initial_rows_per_relation
      << ", \"join_domain\": " << s.join_domain
      << ", \"modify_fraction\": " << s.modify_fraction
      << ", \"relation_sizes\": \"held\""
      << ", \"batch\": " << w.batch
      << ", \"updates_per_s\": " << w.updates_per_s
      << ", \"round_s\": " << w.round_s
      << ", \"self_maintain\": " << (w.self_maintain ? "true" : "false")
      << ", \"readers\": " << w.readers
      << ", \"reads_per_s_per_reader\": " << w.reads_per_s_per_reader
      << ", \"zipf_theta\": " << w.zipf_theta
      << ", \"range_width\": " << w.range_width
      << ", \"retained_versions\": " << w.retained_versions
      << ", \"record_snapshots\": false, \"modelled_costs\": 0}";
  return out.str();
}

mvc::ReaderQueryOptions QueryOptions(const Workload& w) {
  mvc::ReaderQueryOptions query;
  query.enabled = true;
  query.zipf_theta = w.zipf_theta;
  query.burst = 1;
  query.column = "j";
  query.key_min = 0;
  query.key_max = w.spec.join_domain - 1;
  query.range_width = w.range_width;
  return query;
}

mvc::SystemConfig MakeConfig(const Workload& w, uint64_t seed, int round) {
  mvc::SystemConfig config = Warehouse(w);
  config.workload = MakeStream(w, config, SubSeed(seed, round, 1));
  config.seed = seed;
  config.latency = mvc::LatencyModel::Zero();
  config.record_snapshots = false;
  config.use_threads = w.threads;
  config.maint.self_maintain = w.self_maintain;
  if (w.retained_versions > 0) {
    config.warehouse.max_retained_versions = w.retained_versions;
    config.compaction.enabled = true;
  }
  return config;
}

std::vector<ReaderPlan> MakeReaderPlans(const Workload& w, uint64_t seed,
                                        int round) {
  std::vector<ReaderPlan> plans;
  mvc::Rng rng(SubSeed(seed, round, 2));
  const size_t reads = static_cast<size_t>(
      std::lround(w.reads_per_s_per_reader * w.round_s));
  for (int r = 0; r < w.readers; ++r) {
    ReaderPlan plan;
    plan.due = mvc::PoissonReadSchedule(rng.engine()(), reads,
                                        1e6 / w.reads_per_s_per_reader);
    plan.query_seed = rng.engine()();
    plans.push_back(std::move(plan));
  }
  return plans;
}

CheckOutcome CheckRun(const mvc::WarehouseSystem& system, size_t injections,
                      const std::vector<const mvc::WarehouseReader*>& readers,
                      const std::vector<ReaderPlan>& plans) {
  CheckOutcome out;
  const mvc::ConsistencyRecorder& rec = system.recorder();

  // Numbering: every injected transaction exactly once.
  std::vector<const mvc::RecordedUpdate*> updates;
  for (const mvc::RecordedUpdate& u : rec.updates()) updates.push_back(&u);
  std::sort(updates.begin(), updates.end(),
            [](const mvc::RecordedUpdate* a, const mvc::RecordedUpdate* b) {
              return a->id < b->id;
            });
  int64_t duplicates = 0;
  for (size_t i = 1; i < updates.size(); ++i) {
    if (updates[i]->id == updates[i - 1]->id) ++duplicates;
  }
  out.attempted += static_cast<int64_t>(injections);
  out.Fail(static_cast<int64_t>(injections) -
               static_cast<int64_t>(updates.size() - duplicates),
           "injected transactions were never numbered");
  out.Fail(duplicates, "an update id was numbered twice");

  // Coverage: each relevant update in exactly one commit.
  std::unordered_map<mvc::UpdateId, int> commits_of;
  for (const mvc::RecordedCommit& c : rec.commits()) {
    for (mvc::UpdateId row : c.txn.rows) ++commits_of[row];
  }
  const bool pruning = system.config().integrator.relevance_pruning;
  int64_t miscovered = 0;
  for (const mvc::RecordedUpdate* u : updates) {
    bool relevant = false;
    for (const mvc::BoundView& view : system.bound_views()) {
      for (const mvc::Update& upd : u->txn.updates) {
        relevant |= pruning ? mvc::UpdateIsRelevant(view, upd)
                            : view.RelationIndex(upd.relation).has_value();
      }
    }
    auto it = commits_of.find(u->id);
    const int n = it == commits_of.end() ? 0 : it->second;
    if (relevant ? n != 1 : n > 1) ++miscovered;
  }
  out.Fail(miscovered, "a relevant update was not in exactly one commit");

  // Final state: the latest store snapshot against a from-scratch
  // evaluation over the initial base plus every numbered update.
  mvc::Catalog base = system.initial_base().Clone();
  int64_t bad_updates = 0;
  for (const mvc::RecordedUpdate* u : updates) {
    for (const mvc::Update& upd : u->txn.updates) {
      if (!ApplyUpdate(upd, &base).ok()) ++bad_updates;
    }
  }
  out.Fail(bad_updates, "a numbered update does not apply to the base");
  const mvc::SnapshotHandle snapshot =
      system.warehouse().store().AcquireSnapshot();
  const mvc::TableProviderFn provider = mvc::CatalogProvider(&base);
  for (const mvc::BoundView& view : system.bound_views()) {
    ++out.attempted;
    mvc::Result<mvc::Table> expected =
        mvc::ViewEvaluator::Evaluate(view, provider);
    mvc::Result<mvc::Table> actual = snapshot.MaterializeTable(view.name());
    if (!expected.ok() || !actual.ok() ||
        !expected->ContentsEqual(*actual)) {
      out.Fail(1, mvc::StrCat("view ", view.name(),
                              " differs from its evaluation"));
    }
  }

  // Reads: every scheduled query answered.
  for (size_t r = 0; r < readers.size(); ++r) {
    const int64_t due = static_cast<int64_t>(plans[r].due.size());
    int64_t answered = 0;
    for (const auto& obs : readers[r]->query_observations()) {
      if (obs.ok()) ++answered;
    }
    out.attempted += due;
    out.Fail(due - answered, "a read was shed, errored or unanswered");
  }
  return out;
}

}  // namespace perfbench
