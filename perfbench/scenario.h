// The benchmark's workloads: how each is generated from a seed, and the
// correctness checks every run applies to the finished system.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system/warehouse_system.h"
#include "workload/generator.h"

namespace perfbench {

/// One named workload. Every modelled cost (latency, delta cost,
/// sequencing cost, apply delay, query service time) stays at zero, so a
/// run measures only real CPU and real waits.
struct Workload {
  std::string name;
  /// Runs on the thread runtime (open loop, wall-clock arrivals) or on
  /// WallSimRuntime (closed batch: every transaction due at once).
  bool threads = false;
  /// Shape of the generated warehouse (schema, views, initial data); the
  /// update stream is the benchmark's own (see MakeConfig).
  mvc::WorkloadSpec spec;
  /// Closed batch: transactions per round.
  int batch = 0;
  /// Open loop: Poisson arrival rate of source transactions, and the
  /// length of one round's arrival schedule. Every arrival is scheduled
  /// when the run starts, and the load generators drift later the more
  /// they schedule (see NOTES.md), so rounds stay short.
  double updates_per_s = 0;
  double round_s = 0;
  bool self_maintain = false;
  /// Scan-query readers (each its own process and Poisson schedule).
  int readers = 0;
  double reads_per_s_per_reader = 0;
  double zipf_theta = 0.99;
  /// Range queries bound [lo, lo + range_width] on column "j", the first
  /// output column of every generated view.
  int64_t range_width = 20;
  /// Background compaction with this many retained versions (0 = off).
  size_t retained_versions = 0;
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();
/// The workload's parameters as a JSON object.
std::string DescribeWorkload(const Workload& w);

/// The scan query every reader and the post-run read probe issue.
mvc::ReaderQueryOptions QueryOptions(const Workload& w);

/// The system configuration for one round: the workload's fixed
/// warehouse plus an update stream drawn from (seed, round) — a closed
/// batch of w.batch transactions, or an open loop lasting w.round_s.
mvc::SystemConfig MakeConfig(const Workload& w, uint64_t seed, int round);

/// Reads one attached reader is due to issue (microseconds after the
/// run's start stamp), with the seed of its view/range draws.
struct ReaderPlan {
  std::vector<mvc::TimeMicros> due;
  uint64_t query_seed = 0;
};
std::vector<ReaderPlan> MakeReaderPlans(const Workload& w, uint64_t seed,
                                        int round);

/// Outcome of the end-of-run checks; failed/attempted is failed_frac.
struct CheckOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Fail(int64_t n, const std::string& why) {
    if (n <= 0) return;
    failed += n;
    if (first_error.empty()) first_error = why;
  }
};

/// Checks a finished run:
///  * every injected transaction was numbered exactly once;
///  * every relevant update appears in exactly one warehouse commit;
///  * each view in the store's latest snapshot equals the view evaluated
///    over the initial base plus every numbered update;
///  * every scheduled read was answered (not shed, not errored).
CheckOutcome CheckRun(const mvc::WarehouseSystem& system, size_t injections,
                      const std::vector<const mvc::WarehouseReader*>& readers,
                      const std::vector<ReaderPlan>& plans);

}  // namespace perfbench
