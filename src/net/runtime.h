// Actor-style process runtime abstraction.
//
// Every component of the warehouse system (source, integrator, view
// manager, merge process, warehouse) is a Process: single-threaded state
// plus an OnMessage handler. Processes communicate only by message
// passing over per-(sender, receiver) FIFO channels — exactly the
// assumption the paper's algorithms rely on ("messages from the same
// process must arrive in the order sent", Section 4).
//
// Two runtimes implement the interface:
//  * SimRuntime  — deterministic discrete-event simulator (virtual time,
//    seeded random latencies). Default for tests and scenario benches.
//  * ThreadRuntime — one OS thread per process with mailbox queues; used
//    to demonstrate the algorithms under real concurrency.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "net/message.h"

namespace mvc {

/// Identifies a registered process within its runtime.
using ProcessId = int32_t;
constexpr ProcessId kInvalidProcess = -1;

/// Simulated/wall time in microseconds.
using TimeMicros = int64_t;

class Runtime;

/// A single-threaded actor. Subclasses implement OnMessage; all sends go
/// through the owning runtime. A process's handler is never invoked
/// concurrently with itself.
class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;

  const std::string& name() const { return name_; }
  ProcessId id() const { return id_; }
  Runtime* runtime() const { return runtime_; }

  /// Called once by the runtime before any message delivery.
  virtual void OnStart() {}

  /// Handles one delivered message. `from` is the sending process.
  virtual void OnMessage(ProcessId from, MessagePtr msg) = 0;

  /// Fault-aware delivery wrapper the runtimes call instead of
  /// OnMessage. Crash/recover control messages toggle the down flag and
  /// invoke the OnCrashed/OnRecovered hooks; while down, every other
  /// message is dropped (a crashed process neither receives nor acts).
  /// Crashes therefore happen only at message boundaries — a handler
  /// runs to completion or not at all, which models a process whose
  /// steps are individually atomic.
  void Deliver(ProcessId from, MessagePtr msg) {
    switch (msg->kind) {
      case Message::Kind::kCrash:
        if (!down_) {
          down_ = true;
          ++crash_count_;
          OnCrashed();
        }
        return;
      case Message::Kind::kRecover:
        if (down_) {
          down_ = false;
          ++recover_count_;
          OnRecovered();
        }
        return;
      default:
        break;
    }
    if (down_) {
      ++dropped_while_down_;
      return;
    }
    OnMessage(from, std::move(msg));
  }

  bool down() const { return down_; }
  int64_t crash_count() const { return crash_count_; }
  int64_t recover_count() const { return recover_count_; }
  int64_t dropped_while_down() const { return dropped_while_down_; }

 protected:
  /// Crash hook: discard all volatile state. Durable stores (checkpoint
  /// store, merge log, outboxes) survive by construction.
  virtual void OnCrashed() {}

  /// Restart hook: restore durable state and start any resync protocol.
  virtual void OnRecovered() {}

  /// Sends `msg` to `to` over this process's FIFO channel to it.
  void Send(ProcessId to, MessagePtr msg);

  /// Sends `msg` to `to` with an extra `delay` before it enters the
  /// channel — models local processing time (e.g. delta computation)
  /// preceding the send. FIFO order on the channel is preserved relative
  /// to the effective send times.
  void SendAfter(ProcessId to, MessagePtr msg, TimeMicros delay);

  /// Schedules a message to self after `delay` (timers).
  void ScheduleSelf(MessagePtr msg, TimeMicros delay);

  /// Current runtime clock.
  TimeMicros Now() const;

 private:
  friend class Runtime;
  std::string name_;
  ProcessId id_ = kInvalidProcess;
  Runtime* runtime_ = nullptr;
  bool down_ = false;
  int64_t crash_count_ = 0;
  int64_t recover_count_ = 0;
  int64_t dropped_while_down_ = 0;
};

/// Per-edge and aggregate message counters.
struct MessageStats {
  int64_t total_messages = 0;
  std::map<std::string, int64_t> by_kind;

  std::string ToString() const;
};

/// Runtime interface. Processes are registered (non-owning) before Run.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Registers a process and assigns its id. Must happen before Run.
  ProcessId Register(Process* p) {
    MVC_CHECK(p != nullptr);
    MVC_CHECK(p->runtime_ == nullptr);
    p->runtime_ = this;
    p->id_ = static_cast<ProcessId>(processes_.size());
    processes_.push_back(p);
    return p->id_;
  }

  Process* process(ProcessId id) const {
    MVC_CHECK(id >= 0 && static_cast<size_t>(id) < processes_.size());
    return processes_[id];
  }
  size_t num_processes() const { return processes_.size(); }

  /// Enqueues `msg` from `from` to `to`, entering the channel after
  /// `send_delay` of local processing time.
  virtual void Send(ProcessId from, ProcessId to, MessagePtr msg,
                    TimeMicros send_delay) = 0;

  /// Current clock (virtual for the simulator, wall for threads).
  virtual TimeMicros Now() const = 0;

  /// Runs until quiescence: all channels empty and no timers pending.
  virtual void Run() = 0;

  /// Messages sent so far, by kind (kinds never sent are absent).
  MessageStats stats() const {
    MessageStats stats;
    for (size_t k = 0; k < Message::kNumKinds; ++k) {
      const int64_t n = sent_by_kind_[k].load(std::memory_order_relaxed);
      if (n == 0) continue;
      stats.total_messages += n;
      stats.by_kind[MessageKindToString(static_cast<Message::Kind>(k))] = n;
    }
    return stats;
  }

 protected:
  /// Safe to call from any thread: one relaxed increment per message.
  void CountMessage(const Message& msg) {
    sent_by_kind_[static_cast<size_t>(msg.kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::vector<Process*> processes_;

 private:
  std::array<std::atomic<int64_t>, Message::kNumKinds> sent_by_kind_{};
};

inline void Process::Send(ProcessId to, MessagePtr msg) {
  runtime_->Send(id_, to, std::move(msg), 0);
}

inline void Process::SendAfter(ProcessId to, MessagePtr msg,
                               TimeMicros delay) {
  runtime_->Send(id_, to, std::move(msg), delay);
}

inline void Process::ScheduleSelf(MessagePtr msg, TimeMicros delay) {
  runtime_->Send(id_, id_, std::move(msg), delay);
}

inline TimeMicros Process::Now() const { return runtime_->Now(); }

}  // namespace mvc
