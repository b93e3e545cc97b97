// Real-thread runtime: one OS thread per process, mailbox delivery.
//
// Used by the concurrency benchmarks and a stress test to show the
// algorithms behave identically under genuine parallelism. A send whose
// delay plus drawn latency is zero goes straight into the receiver's
// mailbox; a dispatcher thread holds only the delayed messages, in a
// heap, until their wall-clock deadlines. Per-channel FIFO is the
// simulator's: a zero-delay send takes the direct path only while no
// earlier message on its channel is still in the heap, and a delayed
// one is never due before its channel predecessor.
//
// Every send issued while the OnStart hooks run takes its deadline from
// one start instant read on entry to Run(), just as the simulator's
// clock stands still through OnStart: an arrival scheduled `t` ahead is
// due at start + t however long the hooks before it took.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/runtime.h"
#include "net/sim_runtime.h"  // LatencyModel

namespace mvc {

/// Multi-threaded runtime. Run() calls every OnStart, starts one thread
/// per registered process, delivers messages until the system is
/// quiescent (no message in flight, no pending timer), then joins all
/// threads. Processes send only from OnStart and OnMessage, so each
/// channel has one sending thread at a time.
class ThreadRuntime : public Runtime {
 public:
  explicit ThreadRuntime(uint64_t seed,
                         LatencyModel default_latency = LatencyModel::Zero());
  ~ThreadRuntime() override;

  void Send(ProcessId from, ProcessId to, MessagePtr msg,
            TimeMicros send_delay) override;

  /// Wall-clock microseconds since the runtime was constructed. Callers
  /// may stamp times before Run() on this clock.
  TimeMicros Now() const override;

  void Run() override;

 private:
  struct Pending {
    TimeMicros deadline;
    uint64_t seq;
    ProcessId from;
    ProcessId to;
    Message* msg;
    bool operator>(const Pending& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return seq > other.seq;
    }
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<ProcessId, Message*>> queue;
  };

  /// Index of the (from, to) channel in pending_ and channel_last_.
  size_t ChannelIndex(ProcessId from, ProcessId to) const {
    return static_cast<size_t>(from) * processes_.size() +
           static_cast<size_t>(to);
  }

  void DispatcherLoop();
  void WorkerLoop(ProcessId id);
  void PushToMailbox(ProcessId from, ProcessId to, Message* msg);
  void OnHandled();

  TimeMicros DrawLatency(ProcessId from, ProcessId to);

  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      delay_heap_;
  std::vector<TimeMicros> channel_last_;  // per channel, under dispatch_mu_
  uint64_t next_seq_ = 0;

  /// Per channel, its messages in delay_heap_: the sender increments
  /// before the push, the dispatcher decrements (release) once the
  /// message is in the mailbox, and a zero-delay send goes direct only
  /// when it reads 0 (acquire).
  std::unique_ptr<std::atomic<int32_t>[]> pending_;

  std::mutex rng_mu_;
  Rng rng_;
  LatencyModel default_latency_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> workers_;
  std::thread dispatcher_;

  std::mutex idle_mu_;  // taken only to signal quiescence
  std::condition_variable idle_cv_;
  std::atomic<int64_t> in_flight_{0};
  std::atomic<bool> stopping_{false};

  std::chrono::steady_clock::time_point start_;
  /// The start instant, and whether the OnStart hooks are running. Both
  /// are written by Run() only while no runtime thread exists.
  TimeMicros run_start_ = 0;
  bool starting_ = false;
  bool running_ = false;
};

}  // namespace mvc
