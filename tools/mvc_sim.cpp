// mvc_sim — command-line driver for the WHIPS-MVC warehouse simulator.
//
// Generates a parameterized workload, runs it through the configured
// architecture, and prints a run report: deployment plan, throughput,
// freshness, merge pressure, and the consistency-oracle verdicts.
//
//   mvc_sim --txns 500 --views 8 --rate 500 --managers strong --merges 2
//   mvc_sim --sequential-baseline --txns 100
//   mvc_sim --algorithm passthrough --check strong   # watch MVC break

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "fault/fault_plan.h"
#include "merge/merge_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/scenario_parser.h"
#include "system/run_report.h"
#include "system/warehouse_system.h"
#include "workload/generator.h"

namespace mvc {
namespace {

struct Flags {
  std::string scenario_file;
  bool managers_given = false;
  int txns = 200;
  int views = 6;
  int sources = 2;
  int relations_per_source = 2;
  int view_width = 3;
  int updates_per_txn = 1;
  double global_fraction = 0.0;
  int64_t rate_us = 1000;
  int64_t delta_cost_us = 500;
  int64_t per_al_cost_us = 0;
  int64_t merge_cpu_us = 0;
  int64_t latency_us = 300;
  int64_t jitter_us = 500;
  std::string managers = "complete";
  std::string policy = "hold";
  std::string algorithm = "auto";
  size_t batch = 4;
  size_t merges = 1;
  uint64_t seed = 1;
  bool sequential_baseline = false;
  bool no_pruning = false;
  bool piggyback = false;
  bool threads = false;
  std::string check = "auto";
  bool compaction = false;
  bool show_views = false;
  std::string faults;
  int checkpoint_every = 4;
  std::string metrics_out;
  std::string trace_out;
  std::string prom_out;
};

void Usage() {
  std::cout <<
      "mvc_sim: run a multiple-view-consistency warehouse scenario\n\n"
      "Workload:\n"
      "  --txns N                source transactions (default 200)\n"
      "  --views N               warehouse views (default 6)\n"
      "  --sources N             data sources (default 2)\n"
      "  --relations-per-source N (default 2)\n"
      "  --view-width N          max relations joined per view (default 3)\n"
      "  --updates-per-txn N     updates per transaction (default 1)\n"
      "  --global-fraction F     fraction of two-source global txns\n"
      "  --rate US               mean inter-arrival time (default 1000)\n"
      "  --seed N                workload + runtime seed (default 1)\n\n"
      "Architecture:\n"
      "  --managers KIND         complete|strong|periodic|convergent|\n"
      "                          complete-n (default complete)\n"
      "  --algorithm ALG         auto|spa|pa|passthrough (default auto)\n"
      "  --policy P              sequential|hold|annotate|batched\n"
      "  --batch N               BWT size for --policy batched\n"
      "  --merges N              merge processes (distributed merge)\n"
      "  --sequential-baseline   the Section 1.1 strawman instead\n"
      "  --no-pruning            disable relevance pruning\n"
      "  --piggyback             REL via view managers (Section 3.2)\n\n"
      "Costs:\n"
      "  --delta-cost US         per-update delta computation cost\n"
      "  --per-al-cost US        fixed cost per action list\n"
      "  --merge-cpu US          merge processing cost per message\n"
      "  --latency US / --jitter US   channel latency model\n\n"
      "Fault injection:\n"
      "  --faults SPEC           crash schedule target@at[+down_for],...\n"
      "                          e.g. vm-V1@5000+30000,merge-0@12000;\n"
      "                          targets are process names (vm-<view>,\n"
      "                          merge-<g>). Wires checkpointing, the\n"
      "                          merge WAL, and recovery resync\n"
      "  --checkpoint-every N    view-manager checkpoint period in\n"
      "                          emitted action lists (default 4)\n\n"
      "Execution:\n"
      "  --threads               real threads instead of the simulator\n"
      "  --check LEVEL           auto|complete|strong|convergent|none\n"
      "  --compaction            run the background compactor (tiered\n"
      "                          policy defaults; retains >= 64 versions\n"
      "                          so it has history to manage)\n"
      "  --show-views            print final view contents\n\n"
      "Observability:\n"
      "  --metrics-out FILE      write the metrics snapshot as JSON\n"
      "                          (schema mvc-metrics-v1; validate with\n"
      "                          tools/mvc_stats --check)\n"
      "  --trace-out FILE        write the span log as JSON\n"
      "                          (schema mvc-trace-v1)\n"
      "  --prom-out FILE         write the metrics snapshot in Prometheus\n"
      "                          text exposition format\n"
      "                          Any of these turns instrumentation on;\n"
      "                          see docs/OBSERVABILITY.md\n\n"
      "Scenario files:\n"
      "  --scenario FILE         run a .mvc scenario file instead of a\n"
      "                          generated workload (see examples/*.mvc;\n"
      "                          workload flags are then ignored, cost/\n"
      "                          architecture flags still apply)\n";
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else if (arg == "--txns") {
      flags->txns = std::atoi(next());
    } else if (arg == "--views") {
      flags->views = std::atoi(next());
    } else if (arg == "--sources") {
      flags->sources = std::atoi(next());
    } else if (arg == "--relations-per-source") {
      flags->relations_per_source = std::atoi(next());
    } else if (arg == "--view-width") {
      flags->view_width = std::atoi(next());
    } else if (arg == "--updates-per-txn") {
      flags->updates_per_txn = std::atoi(next());
    } else if (arg == "--global-fraction") {
      flags->global_fraction = std::atof(next());
    } else if (arg == "--rate") {
      flags->rate_us = std::atoll(next());
    } else if (arg == "--delta-cost") {
      flags->delta_cost_us = std::atoll(next());
    } else if (arg == "--per-al-cost") {
      flags->per_al_cost_us = std::atoll(next());
    } else if (arg == "--merge-cpu") {
      flags->merge_cpu_us = std::atoll(next());
    } else if (arg == "--latency") {
      flags->latency_us = std::atoll(next());
    } else if (arg == "--jitter") {
      flags->jitter_us = std::atoll(next());
    } else if (arg == "--managers") {
      flags->managers = next();
      flags->managers_given = true;
    } else if (arg == "--scenario") {
      flags->scenario_file = next();
    } else if (arg == "--policy") {
      flags->policy = next();
    } else if (arg == "--algorithm") {
      flags->algorithm = next();
    } else if (arg == "--batch") {
      flags->batch = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--merges") {
      flags->merges = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--seed") {
      flags->seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--sequential-baseline") {
      flags->sequential_baseline = true;
    } else if (arg == "--no-pruning") {
      flags->no_pruning = true;
    } else if (arg == "--piggyback") {
      flags->piggyback = true;
    } else if (arg == "--threads") {
      flags->threads = true;
    } else if (arg == "--faults") {
      flags->faults = next();
    } else if (arg == "--checkpoint-every") {
      flags->checkpoint_every = std::atoi(next());
    } else if (arg == "--metrics-out") {
      flags->metrics_out = next();
    } else if (arg == "--trace-out") {
      flags->trace_out = next();
    } else if (arg == "--prom-out") {
      flags->prom_out = next();
    } else if (arg == "--check") {
      flags->check = next();
    } else if (arg == "--compaction") {
      flags->compaction = true;
    } else if (arg == "--show-views") {
      flags->show_views = true;
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      return false;
    }
  }
  return true;
}

Result<SystemConfig> BuildConfig(const Flags& flags) {
  if (!flags.scenario_file.empty()) {
    MVC_ASSIGN_OR_RETURN(SystemConfig config,
                         ParseScenarioFile(flags.scenario_file));
    // Architecture / cost flags still apply; the file owns the layout,
    // views, managers, and workload.
    if (flags.managers_given) {
      ManagerKind kind = ManagerKind::kComplete;
      if (flags.managers == "strong") kind = ManagerKind::kStrong;
      if (flags.managers == "periodic") kind = ManagerKind::kPeriodic;
      if (flags.managers == "convergent") kind = ManagerKind::kConvergent;
      if (flags.managers == "complete-n") kind = ManagerKind::kCompleteN;
      for (const ViewDefinition& def : config.views) {
        config.manager_kinds[def.name] = kind;
      }
    }
    config.num_merge_processes = flags.merges;
    config.vm_options.delta_cost = flags.delta_cost_us;
    config.vm_options.per_al_cost = flags.per_al_cost_us;
    config.merge.process_delay = flags.merge_cpu_us;
    config.integrator.relevance_pruning = !flags.no_pruning;
    config.integrator.piggyback_rel = flags.piggyback;
    config.latency =
        LatencyModel::Uniform(flags.latency_us, flags.jitter_us);
    config.use_threads = flags.threads;
    config.seed = flags.seed;
    if (flags.algorithm != "auto") {
      config.auto_algorithm = false;
      if (flags.algorithm == "spa") {
        config.merge.algorithm = MergeAlgorithm::kSPA;
      } else if (flags.algorithm == "pa") {
        config.merge.algorithm = MergeAlgorithm::kPA;
      } else if (flags.algorithm == "passthrough") {
        config.merge.algorithm = MergeAlgorithm::kPassThrough;
      }
    }
    return config;
  }

  WorkloadSpec spec;
  spec.seed = flags.seed;
  spec.num_sources = flags.sources;
  spec.relations_per_source = flags.relations_per_source;
  spec.num_views = flags.views;
  spec.max_view_width = flags.view_width;
  spec.num_transactions = flags.txns;
  spec.updates_per_transaction = flags.updates_per_txn;
  spec.global_txn_fraction = flags.global_fraction;
  spec.mean_interarrival = flags.rate_us;
  MVC_ASSIGN_OR_RETURN(SystemConfig config, GenerateScenario(spec));

  ManagerKind kind;
  if (flags.managers == "complete") {
    kind = ManagerKind::kComplete;
  } else if (flags.managers == "strong") {
    kind = ManagerKind::kStrong;
  } else if (flags.managers == "periodic") {
    kind = ManagerKind::kPeriodic;
  } else if (flags.managers == "convergent") {
    kind = ManagerKind::kConvergent;
  } else if (flags.managers == "complete-n") {
    kind = ManagerKind::kCompleteN;
  } else {
    return Status::InvalidArgument("bad --managers " + flags.managers);
  }
  for (const ViewDefinition& def : config.views) {
    config.manager_kinds[def.name] = kind;
  }

  if (flags.policy == "sequential") {
    config.merge.policy = SubmissionPolicy::kSequential;
  } else if (flags.policy == "hold") {
    config.merge.policy = SubmissionPolicy::kHoldDependents;
  } else if (flags.policy == "annotate") {
    config.merge.policy = SubmissionPolicy::kAnnotate;
  } else if (flags.policy == "batched") {
    config.merge.policy = SubmissionPolicy::kBatched;
    config.merge.batch_size = flags.batch;
  } else {
    return Status::InvalidArgument("bad --policy " + flags.policy);
  }

  if (flags.algorithm != "auto") {
    config.auto_algorithm = false;
    if (flags.algorithm == "spa") {
      config.merge.algorithm = MergeAlgorithm::kSPA;
    } else if (flags.algorithm == "pa") {
      config.merge.algorithm = MergeAlgorithm::kPA;
    } else if (flags.algorithm == "passthrough") {
      config.merge.algorithm = MergeAlgorithm::kPassThrough;
    } else {
      return Status::InvalidArgument("bad --algorithm " + flags.algorithm);
    }
  }

  config.num_merge_processes = flags.merges;
  config.vm_options.delta_cost = flags.delta_cost_us;
  config.vm_options.per_al_cost = flags.per_al_cost_us;
  config.merge.process_delay = flags.merge_cpu_us;
  config.integrator.relevance_pruning = !flags.no_pruning;
  config.integrator.piggyback_rel = flags.piggyback;
  config.latency = LatencyModel::Uniform(flags.latency_us, flags.jitter_us);
  config.sequential_baseline = flags.sequential_baseline;
  config.sequential.delta_cost = flags.delta_cost_us;
  config.use_threads = flags.threads;
  config.seed = flags.seed;
  return config;
}

int Run(const Flags& flags) {
  auto config = BuildConfig(flags);
  if (!config.ok()) {
    std::cerr << config.status() << "\n";
    return 2;
  }
  if (!flags.faults.empty()) {
    // Flag events join any `fault` statements from the scenario file.
    auto plan = ParseFaultSpec(flags.faults);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 2;
    }
    config->fault.plan.events.insert(config->fault.plan.events.end(),
                                     plan->events.begin(),
                                     plan->events.end());
  }
  config->fault.checkpoint_every = flags.checkpoint_every;
  if (flags.compaction) {
    config->compaction.enabled = true;
    // The compactor is pointless without retained history to trim.
    if (config->warehouse.max_retained_versions < 64) {
      config->warehouse.max_retained_versions = 64;
    }
  }
  const bool want_obs = !flags.metrics_out.empty() ||
                        !flags.trace_out.empty() || !flags.prom_out.empty();
  if (want_obs) {
    config->collect_metrics = true;
    config->collect_trace = true;
  }
  auto system = WarehouseSystem::Build(std::move(*config));
  if (!system.ok()) {
    std::cerr << "build failed: " << system.status() << "\n";
    return 2;
  }

  if (flags.scenario_file.empty()) {
    std::cout << "Scenario: " << flags.txns << " txns, " << flags.views
              << " views over " << flags.sources << " sources, mean rate "
              << flags.rate_us << "us, seed " << flags.seed << "\n";
  } else {
    std::cout << "Scenario file: " << flags.scenario_file << "\n";
  }
  if (flags.sequential_baseline) {
    std::cout << "Architecture: sequential integrator strawman "
                 "(Section 1.1)\n";
  } else {
    std::cout << "Architecture: " << (*system)->view_managers().size()
              << " view managers (" << flags.managers << "), "
              << (*system)->merges().size() << " merge process(es)\n";
    for (size_t g = 0; g < (*system)->view_groups().size(); ++g) {
      std::cout << "  merge-" << g << " ["
                << MergeAlgorithmToString(
                       (*system)->merges()[g]->engine().algorithm())
                << "/" << SubmissionPolicyToString(
                              (*system)->merges()[g]->options().policy)
                << "] views {"
                << JoinToString((*system)->view_groups()[g].views, ", ")
                << "}\n";
    }
  }
  std::cout << "\nRunning...\n";
  (*system)->Run();

  const ConsistencyRecorder& recorder = (*system)->recorder();
  FreshnessStats freshness = recorder.ComputeFreshness();
  std::cout << "\nResults\n"
            << "  updates numbered:      " << recorder.updates().size()
            << "\n"
            << "  warehouse commits:     " << recorder.commits().size()
            << "\n"
            << "  virtual makespan:      " << (*system)->runtime().Now()
            << " us\n"
            << "  messages:              "
            << (*system)->runtime().stats().total_messages << "\n"
            << "  freshness:             " << freshness.ToString() << "\n";
  for (const auto& merge : (*system)->merges()) {
    std::cout << "  " << merge->name() << ": submitted="
              << merge->stats().transactions_submitted
              << " peak_held_ALs=" << merge->stats().peak_held_action_lists
              << " peak_rows=" << merge->stats().peak_open_rows
              << " peak_backlog=" << merge->stats().peak_backlog << "\n";
  }
  if ((*system)->compactor() != nullptr) {
    const auto& cs = (*system)->compactor()->stats();
    std::cout << "  compactor: plans=" << cs.plans
              << " merges=" << cs.merges_applied
              << " discarded=" << cs.merges_discarded
              << " versions_collapsed=" << cs.versions_collapsed
              << " bytes_reclaimed=" << cs.bytes_reclaimed
              << " peak_inflight=" << cs.peak_inflight << "\n";
  }
  if ((*system)->faults_enabled()) {
    std::cout << "\n" << RunReportString(**system);
  }

  if (want_obs) {
    const obs::MetricsSnapshot snap = (*system)->MetricsSnapshot();
    if (!flags.metrics_out.empty()) {
      std::ofstream out(flags.metrics_out);
      if (!out) {
        std::cerr << "cannot write " << flags.metrics_out << "\n";
        return 2;
      }
      out << obs::MetricsToJson(snap);
    }
    if (!flags.prom_out.empty()) {
      std::ofstream out(flags.prom_out);
      if (!out) {
        std::cerr << "cannot write " << flags.prom_out << "\n";
        return 2;
      }
      out << obs::MetricsToPrometheus(snap);
    }
    if (!flags.trace_out.empty()) {
      std::ofstream out(flags.trace_out);
      if (!out) {
        std::cerr << "cannot write " << flags.trace_out << "\n";
        return 2;
      }
      out << obs::TraceToJson((*system)->TraceSnapshot(),
                              &(*system)->registry());
    }
    std::cout << "\nObservability\n";
    if (const auto* lat =
            obs::FindHistogram(snap, "update.commit_latency_us")) {
      std::cout << "  update->commit latency: n=" << lat->count
                << " p50=" << lat->Quantile(0.5) << "us"
                << " p95=" << lat->Quantile(0.95) << "us"
                << " max=" << lat->max << "us\n";
    }
    if (const auto* stale = obs::FindHistogram(snap, "view.staleness_us")) {
      std::cout << "  per-view staleness:     n=" << stale->count
                << " p50=" << stale->Quantile(0.5) << "us"
                << " p95=" << stale->Quantile(0.95) << "us"
                << " max=" << stale->max << "us\n";
    }
    std::cout << "  prompt violations:      "
              << obs::SumCounters(snap, "merge.prompt_violations") << "\n";
    if (!flags.metrics_out.empty()) {
      std::cout << "  metrics written to " << flags.metrics_out << "\n";
    }
    if (!flags.trace_out.empty()) {
      std::cout << "  trace written to " << flags.trace_out << "\n";
    }
  }

  if (flags.show_views) {
    std::cout << "\nFinal warehouse contents:\n";
    const SnapshotHandle latest =
        (*system)->warehouse().store().AcquireSnapshot();
    for (const TableVersion& view : latest.version().tables) {
      std::cout << view.Materialize().ToString();
    }
  }

  std::string check = flags.check;
  if (check == "auto") {
    if (flags.algorithm == "passthrough" || flags.managers == "convergent") {
      check = "convergent";
    } else if (!flags.scenario_file.empty()) {
      // Scenario files may mix manager kinds; strong is the safe claim.
      check = "strong";
    } else if (flags.managers == "complete" && flags.policy != "batched") {
      check = "complete";
    } else {
      check = "strong";
    }
  }
  if (check == "none") return 0;

  ConsistencyChecker checker = (*system)->MakeChecker();
  Status verdict;
  if (check == "complete") {
    verdict = checker.CheckComplete(recorder);
  } else if (check == "strong") {
    verdict = checker.CheckStrong(recorder);
  } else if (check == "convergent") {
    verdict = checker.CheckConvergent(recorder);
  } else {
    std::cerr << "bad --check " << check << "\n";
    return 2;
  }
  std::cout << "\nConsistency oracle (" << check << "): " << verdict << "\n";
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace mvc

int main(int argc, char** argv) {
  mvc::Flags flags;
  if (!mvc::ParseFlags(argc, argv, &flags)) return 2;
  return mvc::Run(flags);
}
