#include "system/warehouse_system.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "merge/merge_engine.h"
#include "net/thread_runtime.h"
#include "obs/derived.h"
#include "query/evaluator.h"
#include "viewmgr/complete_vm.h"

namespace mvc {

const char* ManagerKindToString(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kComplete:
      return "complete";
    case ManagerKind::kStrong:
      return "strong";
    case ManagerKind::kPeriodic:
      return "periodic";
    case ManagerKind::kConvergent:
      return "convergent";
    case ManagerKind::kCompleteN:
      return "complete-N";
  }
  return "?";
}

void WorkloadDriver::OnStart() {
  for (const Injection& inj : workload_) {
    auto it = source_pids_.find(inj.source);
    MVC_CHECK(it != source_pids_.end())
        << "workload references unknown source " << inj.source;
    auto msg = std::make_unique<InjectTxnMsg>();
    msg->updates = inj.updates;
    msg->global_txn_id = inj.global_txn_id;
    msg->global_participants = inj.global_participants;
    SendAfter(it->second, std::move(msg), inj.at);
  }
}

void WorkloadDriver::OnMessage(ProcessId from, MessagePtr msg) {
  (void)from;
  MVC_LOG_ERROR() << "workload driver: unexpected message " << msg->Summary();
}

namespace {

ConsistencyLevel LevelForKind(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kComplete:
      return ConsistencyLevel::kComplete;
    case ManagerKind::kStrong:
    case ManagerKind::kPeriodic:
    case ManagerKind::kCompleteN:
      return ConsistencyLevel::kStrong;
    case ManagerKind::kConvergent:
      return ConsistencyLevel::kConvergent;
  }
  return ConsistencyLevel::kStrong;
}

}  // namespace

Result<std::unique_ptr<WarehouseSystem>> WarehouseSystem::Build(
    SystemConfig config) {
  auto system = std::unique_ptr<WarehouseSystem>(new WarehouseSystem());
  MVC_RETURN_IF_ERROR(system->Wire(std::move(config)));
  return system;
}

Status WarehouseSystem::Wire(SystemConfig config) {
  config_ = std::move(config);
  recorder_ = ConsistencyRecorder(config_.record_snapshots);

  // --- Scale-out ingest validation ---
  if (config_.ingest.num_shards < 1) {
    return Status::InvalidArgument("ingest.num_shards must be >= 1");
  }
  if (config_.ingest.num_shards > 1) {
    if (config_.sequential_baseline) {
      return Status::InvalidArgument(
          "sharded ingest requires the Figure 1 architecture, not the "
          "sequential baseline");
    }
    if (config_.fault.enabled()) {
      return Status::InvalidArgument(
          "sharded ingest is incompatible with fault injection: replay "
          "and resync requests assume a single retained update stream");
    }
  }
  if (config_.ingest.group_commit.enabled &&
      config_.ingest.group_commit.max_batch < 1) {
    return Status::InvalidArgument(
        "ingest.group_commit.max_batch must be >= 1");
  }
  // The warehouse reads the group-commit bounds from its own options.
  config_.warehouse.group_commit = config_.ingest.group_commit;

  // --- Self-maintenance validation ---
  if (config_.maint.self_maintain) {
    if (config_.sequential_baseline) {
      return Status::InvalidArgument(
          "self-maintenance requires the Figure 1 architecture, not the "
          "sequential baseline");
    }
    if (config_.fault.enabled()) {
      return Status::InvalidArgument(
          "self-maintenance is incompatible with fault injection: replay "
          "and checkpointing assume one manager per view");
    }
    if (config_.integrator.piggyback_rel) {
      return Status::InvalidArgument(
          "self-maintenance requires direct REL delivery; disable "
          "integrator.piggyback_rel");
    }
    if (!config_.aggregates.empty()) {
      return Status::InvalidArgument(
          "self-maintenance does not cover aggregate views yet; drop "
          "maint.self_maintain or the aggregates");
    }
    for (const auto& [view, kind] : config_.manager_kinds) {
      if (kind != ManagerKind::kComplete) {
        return Status::InvalidArgument(StrCat(
            "self-maintaining managers emit complete-level action lists; "
            "view '", view, "' asks for ", ManagerKindToString(kind)));
      }
    }
  }

  // Observability hubs. Both exist when either flag is set: the derived
  // latency/staleness histograms live in the registry but are computed
  // from the trace, so metrics without a trace would silently miss the
  // headline numbers.
  if (config_.collect_metrics || config_.collect_trace) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    tracer_ = std::make_unique<obs::Tracer>();
  }

  if (config_.fault.enabled()) {
    if (config_.fault.checkpoint_every <= 0) {
      return Status::InvalidArgument(
          StrCat("fault.checkpoint_every must be positive, got ",
                 config_.fault.checkpoint_every));
    }
    if (config_.sequential_baseline) {
      return Status::InvalidArgument(
          "fault injection requires the Figure 1 architecture, not the "
          "sequential baseline");
    }
    if (config_.integrator.piggyback_rel) {
      return Status::InvalidArgument(
          "fault injection requires direct REL delivery; disable "
          "integrator.piggyback_rel");
    }
    for (const auto& [view, kind] : config_.manager_kinds) {
      if (kind == ManagerKind::kConvergent) {
        return Status::InvalidArgument(StrCat(
            "fault injection is incompatible with the convergent manager "
            "for view '", view, "': convergent managers re-emit action "
            "lists under a repeated label, which defeats replay "
            "deduplication"));
      }
    }
    // Recovering view managers and merge processes pull the missed tail
    // of the numbered update stream back out of the integrator.
    config_.integrator.retain_for_replay = true;
  }

  // --- Initial base state ---
  std::map<std::string, std::string> relation_source;
  for (const auto& [source, relations] : config_.sources) {
    for (const std::string& relation : relations) {
      if (!relation_source.emplace(relation, source).second) {
        return Status::InvalidArgument(
            StrCat("relation '", relation, "' hosted by several sources"));
      }
    }
  }
  for (const auto& [relation, schema] : config_.schemas) {
    if (relation_source.count(relation) == 0) {
      return Status::InvalidArgument(
          StrCat("relation '", relation, "' is not hosted by any source"));
    }
    MVC_RETURN_IF_ERROR(initial_base_.CreateTable(relation, schema));
    auto data = config_.initial_data.find(relation);
    if (data != config_.initial_data.end()) {
      MVC_ASSIGN_OR_RETURN(Table * table, initial_base_.GetTable(relation));
      for (const Tuple& t : data->second) {
        MVC_RETURN_IF_ERROR(table->Insert(t));
      }
    }
  }

  // --- Bind views ---
  bound_views_.reserve(config_.views.size());
  for (const ViewDefinition& def : config_.views) {
    MVC_ASSIGN_OR_RETURN(BoundView bound,
                         BoundView::Bind(def, config_.schemas));
    bound_views_.push_back(std::move(bound));
  }

  // --- Intern identities ---
  // Every id is minted here, before any process is constructed; from now
  // on the registry is read-only, so processes on any runtime may share
  // it. Views get ids in config order, relations in schema-map (name)
  // order.
  for (const BoundView& view : bound_views_) {
    registry_.InternView(view.name());
  }
  for (const auto& [relation, schema] : config_.schemas) {
    registry_.InternRelation(relation);
  }

  // ActionList::covered is only materialized when something downstream
  // actually reads it: piggybacked REL delivery (out-of-order REL
  // arrival), the consistency oracle (per-AL dedup), or crash recovery
  // (replay dedup). Plain release runs ship lean ALs carrying only the
  // [first_update, update] label range.
  config_.vm_options.collect_covered = config_.integrator.piggyback_rel ||
                                       config_.record_snapshots ||
                                       config_.fault.enabled();

  // --- Runtime ---
  if (config_.runtime_factory) {
    runtime_ = config_.runtime_factory(config_);
    MVC_CHECK(runtime_ != nullptr);
  } else if (config_.use_threads) {
    runtime_ = std::make_unique<ThreadRuntime>(config_.seed, config_.latency);
  } else {
    runtime_ = std::make_unique<SimRuntime>(config_.seed, config_.latency);
  }

  // --- Sources ---
  std::map<std::string, ProcessId> source_pids;
  for (const auto& [name, relations] : config_.sources) {
    auto source = std::make_unique<SourceProcess>(name,
                                                  config_.source_options);
    for (const std::string& relation : relations) {
      auto schema = config_.schemas.find(relation);
      if (schema == config_.schemas.end()) {
        return Status::InvalidArgument(
            StrCat("relation '", relation, "' has no schema"));
      }
      MVC_RETURN_IF_ERROR(source->CreateTable(relation, schema->second));
      auto data = config_.initial_data.find(relation);
      if (data != config_.initial_data.end()) {
        for (const Tuple& t : data->second) {
          MVC_RETURN_IF_ERROR(source->LoadInitial(relation, t));
        }
      }
    }
    source->SetRegistry(&registry_);
    source->EnableObservability(metrics_.get(), tracer_.get());
    source_pids[name] = runtime_->Register(source.get());
    sources_.push_back(std::move(source));
  }

  // --- Warehouse ---
  warehouse_ = std::make_unique<WarehouseProcess>("warehouse",
                                                  config_.warehouse);
  TableProviderFn initial_provider = CatalogProvider(&initial_base_);
  for (const BoundView& view : bound_views_) {
    auto agg = config_.aggregates.find(view.name());
    if (agg != config_.aggregates.end()) {
      MVC_ASSIGN_OR_RETURN(Schema agg_schema,
                           agg->second.OutputSchema(view.output_schema()));
      MVC_RETURN_IF_ERROR(warehouse_->CreateView(view.name(), agg_schema));
      MVC_ASSIGN_OR_RETURN(
          Table initial,
          EvaluateAggregate(view, agg->second, initial_provider,
                            view.name()));
      MVC_RETURN_IF_ERROR(warehouse_->InitializeView(view.name(), initial));
      continue;
    }
    MVC_RETURN_IF_ERROR(
        warehouse_->CreateView(view.name(), view.output_schema()));
    MVC_ASSIGN_OR_RETURN(Table initial,
                         ViewEvaluator::Evaluate(view, initial_provider));
    MVC_RETURN_IF_ERROR(warehouse_->InitializeView(view.name(), initial));
  }
  warehouse_->SetRegistry(&registry_);
  if (metrics_ != nullptr) {
    warehouse_->EnableObservability(metrics_.get());
  }
  const ProcessId warehouse_pid = runtime_->Register(warehouse_.get());

  // --- Background compactor (src/compact/) ---
  if (config_.compaction.enabled) {
    compactor_ =
        std::make_unique<CompactorProcess>("compactor", config_.compaction);
    if (metrics_ != nullptr) {
      compactor_->EnableObservability(metrics_.get());
    }
    const ProcessId compactor_pid = runtime_->Register(compactor_.get());
    compactor_->SetWarehouse(warehouse_pid);
    warehouse_->SetCompactor(compactor_pid,
                             config_.compaction.stats_every_commits,
                             config_.compaction.max_version_detail);
  }

  obs::Counter* wh_commits = nullptr;
  obs::Histogram* wh_txn_rows = nullptr;
  if (metrics_ != nullptr) {
    wh_commits = metrics_->RegisterCounter("warehouse.commits");
    wh_txn_rows = metrics_->RegisterHistogram("warehouse.txn_rows", "rows");
  }
  warehouse_->SetCommitObserver(
      [this, wh_commits, wh_txn_rows](ProcessId submitter,
                                      const WarehouseTransaction& txn,
                                      TimeMicros now) {
        recorder_.OnCommit(submitter, txn, now);
        if (wh_commits != nullptr) {
          wh_commits->Add();
          wh_txn_rows->Record(static_cast<int64_t>(txn.rows.size()));
        }
        if (tracer_ != nullptr) {
          for (UpdateId row : txn.rows) {
            tracer_->Record(obs::Span{obs::SpanKind::kCommitted, row,
                                      kInvalidView, txn.txn_id, submitter,
                                      now, "warehouse"});
          }
          // One reflection span per (view, covered update): the commit
          // makes each action list's updates visible in its view.
          for (const ActionList& al : txn.actions) {
            if (al.covered.empty()) {
              for (UpdateId u = al.first_update; u <= al.update; ++u) {
                tracer_->Record(obs::Span{obs::SpanKind::kViewReflected, u,
                                          al.view, txn.txn_id, 0, now,
                                          "warehouse"});
              }
            } else {
              for (UpdateId u : al.covered) {
                tracer_->Record(obs::Span{obs::SpanKind::kViewReflected, u,
                                          al.view, txn.txn_id, 0, now,
                                          "warehouse"});
              }
            }
          }
        }
      });

  if (config_.sequential_baseline) {
    // --- Section 1.1 strawman wiring ---
    sequential_ = std::make_unique<SequentialIntegrator>(
        "sequential-integrator", config_.sequential);
    for (const BoundView& view : bound_views_) {
      MVC_RETURN_IF_ERROR(
          sequential_->RegisterView(&view, *registry_.FindView(view.name())));
    }
    for (const auto& [relation, schema] : config_.schemas) {
      MVC_ASSIGN_OR_RETURN(const Table* initial,
                           initial_base_.GetTable(relation));
      MVC_RETURN_IF_ERROR(
          sequential_->RegisterBaseRelation(relation, schema, initial));
    }
    const ProcessId seq_pid = runtime_->Register(sequential_.get());
    sequential_->SetWarehouse(warehouse_pid);
    sequential_->SetUpdateObserver(
        [this](UpdateId id, const SourceTransaction& txn) {
          recorder_.OnUpdateNumbered(id, txn, runtime_->Now());
        });
    for (auto& source : sources_) source->SetIntegrator(seq_pid);
  } else {
    // --- Figure 1 wiring ---
    std::vector<const BoundView*> view_ptrs;
    for (const BoundView& view : bound_views_) view_ptrs.push_back(&view);
    // ingest.fanout_merge: one merge process per relation-disjoint view
    // group (the exact Section 6.1 partition), rather than balancing
    // into a fixed process budget.
    groups_ = config_.ingest.fanout_merge
                  ? PartitionViews(view_ptrs)
                  : PartitionViewsInto(view_ptrs,
                                       config_.num_merge_processes);

    // Merge processes (one per group).
    std::map<std::string, ProcessId> merge_of_view;
    for (size_t g = 0; g < groups_.size(); ++g) {
      MergeOptions options = config_.merge;
      if (config_.auto_algorithm) {
        std::vector<uint8_t> levels;
        for (const std::string& view : groups_[g].views) {
          if (config_.aggregates.count(view) > 0) {
            levels.push_back(
                static_cast<uint8_t>(ConsistencyLevel::kStrong));
            continue;
          }
          ManagerKind kind = ManagerKind::kComplete;
          auto it = config_.manager_kinds.find(view);
          if (it != config_.manager_kinds.end()) kind = it->second;
          levels.push_back(static_cast<uint8_t>(LevelForKind(kind)));
        }
        options.algorithm = AlgorithmForLevels(levels);
      }
      auto merge = std::make_unique<MergeProcess>(
          StrCat("merge-", g), registry_.InternViews(groups_[g].views),
          &registry_, options);
      ProcessId merge_pid = runtime_->Register(merge.get());
      merge->SetWarehouse(warehouse_pid);
      merge->EnableObservability(metrics_.get(), tracer_.get());
      for (const std::string& view : groups_[g].views) {
        merge_of_view[view] = merge_pid;
      }
      merges_.push_back(std::move(merge));
    }

    // View managers: either one self-maintaining manager per merge
    // group (maint.self_maintain), or one per-view manager.
    std::map<std::string, ProcessId> vm_of_view;
    if (config_.maint.self_maintain) {
      std::map<std::string, const BoundView*> view_by_name;
      for (const BoundView& view : bound_views_) {
        view_by_name[view.name()] = &view;
      }
      // Auxiliary relation ids are minted here, per group, still before
      // the runtime starts — after this loop the registry is read-only
      // again.
      size_t aux_name_offset = 0;
      for (size_t g = 0; g < groups_.size(); ++g) {
        SelfMaintainingVmOptions options;
        options.delta_cost = config_.vm_options.delta_cost;
        options.per_al_cost = config_.vm_options.per_al_cost;
        options.collect_covered = config_.vm_options.collect_covered;
        options.relevance_pruning = config_.integrator.relevance_pruning;
        options.mutation_skip_aux_apply =
            config_.maint.mutation_skip_aux_apply;
        auto vm = std::make_unique<SelfMaintainingVm>(StrCat("maint-", g),
                                                      options);
        for (const std::string& view_name : groups_[g].views) {
          vm->AddView(view_by_name.at(view_name),
                      *registry_.FindView(view_name));
        }
        MVC_RETURN_IF_ERROR(
            vm->Initialize(initial_base_, aux_name_offset, &registry_));
        aux_name_offset += vm->aux_plan().auxiliaries.size();
        const ProcessId pid = runtime_->Register(vm.get());
        for (const std::string& view_name : groups_[g].views) {
          vm_of_view[view_name] = pid;
        }
        vm->SetMerge(merge_of_view.at(groups_[g].views.front()));
        vm->EnableObservability(metrics_.get(), tracer_.get());
        maint_vms_.push_back(std::move(vm));
      }
    } else {
    for (const BoundView& view : bound_views_) {
      ManagerKind kind = ManagerKind::kComplete;
      auto kind_it = config_.manager_kinds.find(view.name());
      if (kind_it != config_.manager_kinds.end()) kind = kind_it->second;
      std::unique_ptr<ViewManagerBase> vm;
      const std::string vm_name = StrCat("vm-", view.name());
      auto agg_it = config_.aggregates.find(view.name());
      if (agg_it != config_.aggregates.end()) {
        AggregateViewManagerOptions options = config_.aggregate_options;
        options.base = config_.vm_options;
        vm = std::make_unique<AggregateViewManager>(vm_name, &view,
                                                    agg_it->second, options);
      } else {
      switch (kind) {
        case ManagerKind::kComplete:
          vm = std::make_unique<CompleteViewManager>(vm_name, &view,
                                                     config_.vm_options);
          break;
        case ManagerKind::kStrong: {
          StrongViewManagerOptions options = config_.strong_options;
          options.base = config_.vm_options;
          vm = std::make_unique<StrongViewManager>(vm_name, &view, options);
          break;
        }
        case ManagerKind::kCompleteN: {
          StrongViewManagerOptions options = config_.strong_options;
          options.base = config_.vm_options;
          options.min_batch = config_.complete_n;
          options.max_batch = config_.complete_n;
          if (options.flush_timeout == 0) options.flush_timeout = 100000;
          vm = std::make_unique<StrongViewManager>(vm_name, &view, options);
          break;
        }
        case ManagerKind::kPeriodic: {
          PeriodicViewManagerOptions options = config_.periodic_options;
          options.base = config_.vm_options;
          vm = std::make_unique<PeriodicViewManager>(vm_name, &view, options);
          break;
        }
        case ManagerKind::kConvergent: {
          ConvergentViewManagerOptions options = config_.convergent_options;
          options.base = config_.vm_options;
          vm = std::make_unique<ConvergentViewManager>(vm_name, &view,
                                                       options);
          break;
        }
      }
      }
      vm->SetViewId(*registry_.FindView(view.name()));
      for (size_t r = 0; r < view.num_relations(); ++r) {
        const std::string& relation = view.relation(r);
        MVC_ASSIGN_OR_RETURN(const Table* initial,
                             initial_base_.GetTable(relation));
        MVC_RETURN_IF_ERROR(vm->RegisterBaseRelation(
            relation, config_.schemas.at(relation), initial));
        vm->SetSourceForRelation(relation, *registry_.FindRelation(relation),
                                 source_pids.at(relation_source.at(relation)));
      }
      vm_of_view[view.name()] = runtime_->Register(vm.get());
      vm->SetMerge(merge_of_view.at(view.name()));
      vm->EnableObservability(metrics_.get(), tracer_.get());
      view_managers_.push_back(std::move(vm));
    }
    }

    // Section 6.1 x 6.2 interaction: a transaction whose updates span
    // two *disjoint* merge groups cannot be applied atomically (each
    // group commits independently), so such workloads are rejected up
    // front rather than silently violating MVC. Relation-level
    // relevance keeps the check conservative.
    {
      std::map<std::string, size_t> group_of_relation;
      for (size_t g = 0; g < groups_.size(); ++g) {
        for (const std::string& rel : groups_[g].relations) {
          group_of_relation[rel] = g;
        }
      }
      // Atomic units: plain injections, or all parts of a global txn.
      std::map<int64_t, std::set<size_t>> global_groups;
      for (const Injection& inj : config_.workload) {
        std::set<size_t> touched;
        for (const Update& u : inj.updates) {
          auto it = group_of_relation.find(u.relation);
          if (it != group_of_relation.end()) touched.insert(it->second);
        }
        if (inj.global_txn_id != 0) {
          auto& acc = global_groups[inj.global_txn_id];
          acc.insert(touched.begin(), touched.end());
          touched = acc;
        }
        if (touched.size() > 1) {
          return Status::InvalidArgument(StrCat(
              "a transaction at t=", inj.at, " spans ", touched.size(),
              " disjoint merge groups; cross-group transactions cannot be "
              "applied atomically — use fewer merge processes or keep "
              "transactions within one view group"));
        }
      }
    }

    // Integrator (possibly sharded). The shard plan co-locates every
    // source hosting one merge group's relations — and all participants
    // of each global transaction — on a single shard, so each view
    // manager and merge process receives its whole stream over one FIFO
    // channel, in cross-shard ticket order.
    if (config_.ingest.num_shards > 1) {
      std::vector<std::vector<std::string>> co_located;
      std::map<int64_t, std::set<std::string>> global_sources;
      for (const Injection& inj : config_.workload) {
        if (inj.global_txn_id != 0) {
          global_sources[inj.global_txn_id].insert(inj.source);
        }
      }
      for (const auto& [id, srcs] : global_sources) {
        co_located.emplace_back(srcs.begin(), srcs.end());
      }
      shard_plan_ = PlanIntegratorShards(config_.sources, groups_,
                                         co_located,
                                         config_.ingest.num_shards);
      ticketer_ = std::make_unique<CrossShardTicketer>();
    } else {
      shard_plan_.num_shards = 1;
      for (const auto& [name, relations] : config_.sources) {
        shard_plan_.shard_of_source[name] = 0;
      }
    }
    const size_t num_shards = std::max<size_t>(shard_plan_.num_shards, 1);
    std::vector<ProcessId> shard_pids;
    for (size_t s = 0; s < num_shards; ++s) {
      // Shard 0 keeps the legacy process name so traces and tests that
      // key on "integrator" read the same in both modes.
      auto shard = std::make_unique<IntegratorProcess>(
          s == 0 ? std::string("integrator") : StrCat("integrator-", s),
          config_.integrator);
      if (ticketer_ != nullptr) {
        shard->SetShard(static_cast<int32_t>(s), ticketer_.get());
        // The merges this shard owns: each group's relations are hosted
        // entirely within one shard's sources by construction.
        std::vector<ProcessId> owned;
        for (const ViewGroup& group : groups_) {
          const std::string& any_rel = group.relations.front();
          if (shard_plan_.ShardOf(relation_source.at(any_rel)) == s) {
            owned.push_back(merge_of_view.at(group.views.front()));
          }
        }
        shard->SetBroadcastMerges(std::move(owned));
      }
      shard_pids.push_back(runtime_->Register(shard.get()));
      for (const BoundView& view : bound_views_) {
        MVC_RETURN_IF_ERROR(shard->RegisterView(
            &view, *registry_.FindView(view.name()),
            vm_of_view.at(view.name()), merge_of_view.at(view.name())));
      }
      shard->SetUpdateObserver(
          [this](UpdateId id, const SourceTransaction& txn) {
            recorder_.OnUpdateNumbered(id, txn, runtime_->Now());
          });
      shard->EnableObservability(metrics_.get(), tracer_.get());
      integrator_shards_.push_back(std::move(shard));
    }
    for (auto& source : sources_) {
      source->SetIntegrator(
          shard_pids[shard_plan_.ShardOf(source->name())]);
    }
    const ProcessId integrator_pid = shard_pids.front();

    // Fault tolerance: durable stores, recovery wiring, and the injector.
    if (config_.fault.enabled()) {
      checkpoint_store_ = std::make_unique<CheckpointStore>();
      for (auto& vm : view_managers_) {
        vm->EnableFaultTolerance(checkpoint_store_.get(),
                                 config_.fault.checkpoint_every,
                                 integrator_pid);
      }
      for (size_t g = 0; g < groups_.size(); ++g) {
        auto log = std::make_unique<MergeLog>();
        std::map<ViewId, ProcessId> group_vms;
        for (const std::string& view : groups_[g].views) {
          group_vms[*registry_.FindView(view)] = vm_of_view.at(view);
        }
        merges_[g]->EnableFaultTolerance(log.get(), integrator_pid,
                                         std::move(group_vms),
                                         config_.fault);
        merge_logs_.push_back(std::move(log));
      }
      std::map<std::string, ProcessId> targets;
      for (const auto& vm : view_managers_) targets[vm->name()] = vm->id();
      for (const auto& merge : merges_) {
        targets[merge->name()] = merge->id();
      }
      for (const FaultEvent& ev : config_.fault.plan.events) {
        if (targets.count(ev.target) == 0) {
          std::vector<std::string> known;
          for (const auto& [name, pid] : targets) known.push_back(name);
          return Status::InvalidArgument(
              StrCat("fault target '", ev.target,
                     "' is not a crashable process; known targets: ",
                     JoinToString(known, ", ")));
        }
      }
      fault_injector_ = std::make_unique<FaultInjectorProcess>(
          config_.fault.plan, std::move(targets));
      runtime_->Register(fault_injector_.get());
    }
  }

  // --- Workload driver ---
  std::vector<Injection> workload = config_.workload;
  std::stable_sort(workload.begin(), workload.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.at < b.at;
                   });
  driver_ = std::make_unique<WorkloadDriver>("driver", std::move(workload),
                                             source_pids);
  runtime_->Register(driver_.get());

  // --- Config-driven readers (the explorer's only way to get reads
  // into the schedule: it rebuilds the system from the config alone) ---
  if (config_.attach_readers) {
    AttachReaderPool(config_.readers);
  }
  return Status::OK();
}

void WarehouseSystem::Run() {
  runtime_->Run();
  FinalizeObservability();
}

void WarehouseSystem::FinalizeObservability() {
  if (obs_finalized_ || metrics_ == nullptr) return;
  obs_finalized_ = true;
  // End-of-run engine levels. The PA engine is excluded from the live
  // promptness scan, so a non-zero end gauge here is the coarse-grained
  // check that every merge drained its holds.
  for (const auto& merge : merges_) {
    const std::string l = StrCat("{process=\"", merge->name(), "\"}");
    metrics_->RegisterGauge(StrCat("merge.end_held_action_lists", l))
        ->Set(static_cast<int64_t>(merge->engine().held_action_lists()));
    metrics_->RegisterGauge(StrCat("merge.end_open_rows", l))
        ->Set(static_cast<int64_t>(merge->engine().open_rows()));
  }
  obs::ComputeDerivedMetrics(tracer_->Snapshot(), &registry_,
                             metrics_.get());
}

obs::MetricsSnapshot WarehouseSystem::MetricsSnapshot() const {
  if (metrics_ == nullptr) return {};
  return metrics_->Snapshot();
}

std::vector<obs::Span> WarehouseSystem::TraceSnapshot() const {
  if (tracer_ == nullptr) return {};
  return tracer_->Snapshot();
}

WarehouseReader* WarehouseSystem::AttachReader(
    std::vector<std::string> views, std::vector<TimeMicros> read_at,
    const ReaderQueryOptions* query, uint64_t query_seed) {
  const bool query_mode = query != nullptr && query->enabled;
  // Names resolve to ids here, at the ingest boundary; the reader's
  // messages carry ids only. The query workload needs an explicit view
  // alphabet for its popularity distribution, so "all views" resolves
  // eagerly there.
  std::vector<ViewId> ids;
  if (views.empty() && query_mode) {
    for (size_t v = 0; v < registry_.num_views(); ++v) {
      ids.push_back(static_cast<ViewId>(v));
    }
  }
  for (const std::string& view : views) {
    std::optional<ViewId> id = registry_.FindView(view);
    MVC_CHECK(id.has_value()) << "reader references unknown view " << view;
    ids.push_back(*id);
  }
  auto reader = std::make_unique<WarehouseReader>(
      StrCat("reader-", readers_.size()), std::move(ids),
      std::move(read_at));
  runtime_->Register(reader.get());
  reader->SetWarehouse(warehouse_->id());
  if (query_mode) reader->SetQueryOptions(*query, query_seed);
  reader->EnableObservability(metrics_.get());
  readers_.push_back(std::move(reader));
  return readers_.back().get();
}

std::vector<WarehouseReader*> WarehouseSystem::AttachReaderPool(
    const ReaderPoolOptions& options) {
  std::vector<WarehouseReader*> pool;
  pool.reserve(options.num_readers);
  Rng root(options.seed);
  for (size_t r = 0; r < options.num_readers; ++r) {
    Rng stream = root.Fork();
    pool.push_back(AttachReader(
        options.views,
        PoissonReadSchedule(stream.engine()(), options.reads_per_reader,
                            options.mean_interval_us, options.start),
        &options.query, stream.engine()()));
  }
  return pool;
}

ConsistencyChecker WarehouseSystem::MakeChecker() const {
  std::vector<CheckedView> views;
  for (const BoundView& view : bound_views_) {
    auto agg = config_.aggregates.find(view.name());
    views.push_back(CheckedView{
        &view, agg == config_.aggregates.end() ? nullptr : &agg->second});
  }
  CheckerOptions options;
  options.relevance_pruning = config_.sequential_baseline
                                  ? false
                                  : config_.integrator.relevance_pruning;
  options.registry = &registry_;
  options.store = &warehouse_->store();
  return ConsistencyChecker(std::move(views), initial_base_, options);
}

}  // namespace mvc
