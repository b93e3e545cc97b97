// Runtimes the benchmark installs through SystemConfig::runtime_factory.
//
// WallSimRuntime is the SimRuntime used purely as a single-threaded
// executor: events are still ordered on its virtual clock (zero latency,
// per-channel FIFO), but every timestamp a process takes through Now() —
// numbering, commit, reader send/receive — is wall time.
//
// TracingRuntime wraps a real runtime. Each registered process gets a
// proxy in the inner runtime (same ids, same registration order); the
// proxy times every public Process::Deliver call and the wrapper stamps
// every Send. One Span per delivery stays in memory until the run ends.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/runtime.h"
#include "net/sim_runtime.h"

namespace perfbench {

/// steady_clock nanoseconds.
int64_t WallNs();
/// CPU nanoseconds consumed by the calling thread.
int64_t ThreadCpuNs();
/// User+system CPU nanoseconds consumed by the whole process.
int64_t ProcessCpuNs();

class WallSimRuntime : public mvc::SimRuntime {
 public:
  explicit WallSimRuntime(uint64_t seed);
  /// Wall microseconds on the WallNs() clock.
  mvc::TimeMicros Now() const override;
};

/// One delivery: who sent what to whom, when it was sent (and with which
/// requested delay), and the wall/CPU interval of the receiver's handler.
struct Span {
  mvc::Message::Kind kind = mvc::Message::Kind::kTick;
  mvc::ProcessId from = mvc::kInvalidProcess;
  mvc::ProcessId to = mvc::kInvalidProcess;
  int64_t sent_ns = 0;
  int64_t delay_us = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  /// Views named by a kRelSet message (the integrator's REL_i size).
  int32_t rel_views = 0;
};

class TracingRuntime : public mvc::Runtime {
 public:
  explicit TracingRuntime(std::unique_ptr<mvc::Runtime> inner);
  ~TracingRuntime() override;
  TracingRuntime(const TracingRuntime&) = delete;
  TracingRuntime& operator=(const TracingRuntime&) = delete;

  void Send(mvc::ProcessId from, mvc::ProcessId to, mvc::MessagePtr msg,
            mvc::TimeMicros send_delay) override;
  mvc::TimeMicros Now() const override { return inner_->Now(); }
  void Run() override;

  /// Every span, grouped by receiver. After Run only.
  std::vector<Span> CollectSpans() const;

 private:
  class Proxy;
  struct Stamp {
    int64_t sent_ns = 0;
    int64_t delay_us = 0;
  };
  /// Send stamps of the messages in flight to one receiver, keyed by the
  /// message's address (stable from Send until delivery).
  struct Inbox {
    std::mutex mu;
    std::unordered_map<const mvc::Message*, Stamp> stamps;
  };

  /// Registers one proxy per process into the inner runtime. Run() calls
  /// it, after readers attached past Build() have registered too.
  void Attach();
  Stamp TakeStamp(mvc::ProcessId to, const mvc::Message* msg);

  std::unique_ptr<mvc::Runtime> inner_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
};

}  // namespace perfbench
