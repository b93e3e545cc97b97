// Systematic schedule exploration (the third checking layer, after the
// static lint and TSan — see docs/ANALYSIS.md).
//
// The ScheduleExplorer enumerates message-delivery interleavings of a
// configured warehouse system and runs the ConsistencyChecker as an
// oracle after every delivery. Exploration is stateless-model-checking
// style: the system is rebuilt from its (deterministic) SystemConfig for
// every schedule and driven by an ExploringRuntime whose scheduler
// replays a DFS-chosen prefix, so no component needs snapshot/rollback
// support.
//
// Search space control:
//   * Delay bound. The canonical schedule always delivers the enabled
//     choice with the lowest (sender, receiver) channel; choosing the
//     i-th enabled choice instead costs i "delays". A run's total cost
//     must stay within `delay_bound` — the standard delay-bounding
//     heuristic: most concurrency bugs manifest within a handful of
//     deviations from a canonical order.
//   * Sleep sets. Deliveries to different target processes commute (an
//     actor's handler touches only its own state and its own outgoing
//     channels), so schedules differing only in the order of such
//     deliveries are equivalent; sleep sets prune the re-exploration.
//   * Iterative deepening over the delay bound (on by default) makes the
//     first counterexample found minimal in deviation count.
//
// On violation the explorer reports the exact delivery prefix ending at
// the violating delivery; WriteCounterexampleFile / Replay turn it into
// a replayable artifact and a paper-style trace.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "system/warehouse_system.h"

namespace mvc {

/// Which oracle gates the explored schedules. Mirrors mvc_sim --check.
enum class CheckLevel : uint8_t {
  kNone = 0,
  kConvergent = 1,
  kStrong = 2,
  kComplete = 3,
};

const char* CheckLevelToString(CheckLevel level);
bool ParseCheckLevel(const std::string& text, CheckLevel* out);

/// The strongest level the configuration is expected to satisfy: complete
/// managers + SPA promise MVC-complete, convergent managers or
/// pass-through merging only convergence, everything else MVC-strong.
CheckLevel DeriveCheckLevel(const SystemConfig& config);

struct ExploreOptions {
  /// Maximum total scheduling deviations per execution (see above).
  int delay_bound = 2;
  /// Explore bounds 0..delay_bound in order; the first violation found
  /// then has a minimal number of deviations.
  bool iterative_deepening = true;
  /// Stop after this many executions (0 = unlimited).
  int64_t max_executions = 200000;
  /// Per-execution delivery cap (guards runaway timer loops).
  int64_t max_steps = 10000;
  /// Sleep-set partial-order pruning.
  bool sleep_sets = true;
  /// Oracle level; callers usually pass DeriveCheckLevel(config).
  CheckLevel check = CheckLevel::kStrong;
};

/// One delivery, by process name — stable across re-executions and
/// human-readable in counterexample files.
struct ScheduleStep {
  std::string from;
  std::string to;
  std::string kind;
};

struct ExploreViolation {
  /// The oracle's diagnostic.
  std::string message;
  /// The delivery prefix ending at the violating delivery.
  std::vector<ScheduleStep> schedule;
  /// Index of the violating execution (0-based).
  int64_t execution = 0;
  /// Delay bound at which it surfaced.
  int delay_bound = 0;
};

struct ExploreReport {
  int64_t executions = 0;
  int64_t deliveries = 0;
  /// Executions cut off by max_steps or the delay bound (their suffixes
  /// were not covered).
  int64_t truncated = 0;
  int64_t sleep_skips = 0;
  int64_t bound_prunes = 0;
  int64_t max_depth = 0;
  /// DFS ran out of unexplored schedules within the bound.
  bool exhausted = false;
  std::optional<ExploreViolation> violation;

  std::string ToJson() const;
};

class ScheduleExplorer {
 public:
  /// `config` must be deterministic (it is re-Built per execution);
  /// use_threads is ignored and record_snapshots (content checks) is
  /// forced on when an oracle level needs it.
  ScheduleExplorer(SystemConfig config, ExploreOptions options);

  /// Called after every violation-free execution that ran to quiescence,
  /// with the finished system (final warehouse contents, stats).
  using ExecutionObserver = std::function<void(const WarehouseSystem&)>;
  void SetExecutionObserver(ExecutionObserver observer) {
    observer_ = std::move(observer);
  }

  Result<ExploreReport> Explore();

  struct ReplayResult {
    /// Oracle verdict on the replayed prefix.
    Status verdict = Status::OK();
    /// Paper-style trace, one line per delivery.
    std::vector<std::string> trace;
  };

  /// Re-executes one recorded schedule against a fresh system and
  /// returns the oracle's verdict on the resulting prefix. Errors if the
  /// schedule does not match any enabled delivery (wrong scenario or a
  /// non-deterministic config).
  static Result<ReplayResult> Replay(SystemConfig config,
                                     const std::vector<ScheduleStep>& schedule,
                                     CheckLevel check);

 private:
  Result<ExploreReport> ExploreBound(int bound, int64_t execution_base);

  SystemConfig config_;
  ExploreOptions options_;
  ExecutionObserver observer_;
};

/// Counterexample files: '#' comment lines followed by one
/// "deliver <from> -> <to> <kind>" line per delivery.
Status WriteCounterexampleFile(const std::string& path,
                               const std::string& scenario_label,
                               CheckLevel check,
                               const ExploreViolation& violation);
Result<std::vector<ScheduleStep>> ReadCounterexampleFile(
    const std::string& path);

}  // namespace mvc
