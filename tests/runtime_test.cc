// Tests for the simulation and thread runtimes: delivery, FIFO
// channels, latency, timers, determinism, quiescence.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>

#include "net/protocol.h"
#include "net/sim_runtime.h"
#include "net/thread_runtime.h"

namespace mvc {
namespace {

/// Records every delivered tick tag with its delivery time.
class Recorder : public Process {
 public:
  explicit Recorder(std::string name) : Process(std::move(name)) {}

  void OnMessage(ProcessId from, MessagePtr msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    ASSERT_EQ(msg->kind, Message::Kind::kTick);
    log_.emplace_back(from, static_cast<TickMsg*>(msg.get())->tag);
    times_.push_back(Now());
  }

  std::vector<std::pair<ProcessId, int64_t>> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }
  std::vector<TimeMicros> times() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<ProcessId, int64_t>> log_;
  std::vector<TimeMicros> times_;
};

/// Sends `count` ticks to a target at OnStart, each after `gap` of local
/// processing time.
class Sender : public Process {
 public:
  Sender(std::string name, ProcessId target, int count, TimeMicros gap)
      : Process(std::move(name)), target_(target), count_(count), gap_(gap) {}

  void OnStart() override {
    for (int i = 0; i < count_; ++i) {
      auto tick = std::make_unique<TickMsg>();
      tick->tag = i;
      SendAfter(target_, std::move(tick), gap_ * i);
    }
  }
  void OnMessage(ProcessId, MessagePtr) override {}

 private:
  ProcessId target_;
  int count_;
  TimeMicros gap_;
};

/// At OnStart, sends tick 0 after `delay`, then tick 1 with no delay, on
/// the same channel.
class DelayedThenImmediate : public Process {
 public:
  DelayedThenImmediate(std::string name, ProcessId target, TimeMicros delay)
      : Process(std::move(name)), target_(target), delay_(delay) {}

  void OnStart() override {
    auto first = std::make_unique<TickMsg>();
    first->tag = 0;
    SendAfter(target_, std::move(first), delay_);
    auto second = std::make_unique<TickMsg>();
    second->tag = 1;
    Send(target_, std::move(second));
  }
  void OnMessage(ProcessId, MessagePtr) override {}

 private:
  ProcessId target_;
  TimeMicros delay_;
};

/// The delayed send is issued first, so it must arrive first: a
/// zero-delay send may not overtake it on its channel.
void ExpectDelayedSendStaysAhead(Runtime& runtime) {
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  DelayedThenImmediate sender("sender", rid, 2000);
  runtime.Register(&sender);
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].second, 0) << "zero-delay send overtook a delayed one";
  EXPECT_EQ(log[1].second, 1);
}

/// Sends one tick after `delay` at OnStart, then spins for `spin` of
/// wall time before returning, so OnStart hooks after it run late.
class SlowStarter : public Process {
 public:
  SlowStarter(std::string name, ProcessId target, int64_t tag,
              TimeMicros delay, std::chrono::microseconds spin)
      : Process(std::move(name)),
        target_(target),
        tag_(tag),
        delay_(delay),
        spin_(spin) {}

  void OnStart() override {
    auto tick = std::make_unique<TickMsg>();
    tick->tag = tag_;
    SendAfter(target_, std::move(tick), delay_);
    const auto until = std::chrono::steady_clock::now() + spin_;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  void OnMessage(ProcessId, MessagePtr) override {}

 private:
  ProcessId target_;
  int64_t tag_;
  TimeMicros delay_;
  std::chrono::microseconds spin_;
};

/// Two OnStart sends, the first one slow to return: both deadlines are
/// taken from one start instant, so the shorter delay arrives first and
/// nothing arrives before the instant the caller stamped plus its delay.
void ExpectOneStartInstant(Runtime& runtime) {
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  SlowStarter p("p", rid, /*tag=*/3000, /*delay=*/3000,
                std::chrono::microseconds(5000));
  SlowStarter q("q", rid, /*tag=*/1000, /*delay=*/1000,
                std::chrono::microseconds(0));
  runtime.Register(&p);
  runtime.Register(&q);
  const TimeMicros stamp = runtime.Now();
  runtime.Run();
  auto log = recorder.log();
  auto times = recorder.times();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].second, 1000) << "later OnStart hook ran on a later clock";
  EXPECT_EQ(log[1].second, 3000);
  for (size_t i = 0; i < log.size(); ++i) {
    // Each tag is its delay.
    EXPECT_GE(times[i], stamp + log[i].second) << "tick " << log[i].second;
  }
}

/// Sends `rounds` bursts of `burst` ticks to a target, one burst per
/// self-timer. Every third tick is delayed by up to `max_delay`; the
/// rest go out with no delay. Tags count up per sender.
class MixedSender : public Process {
 public:
  MixedSender(std::string name, ProcessId target, int rounds, int burst,
              TimeMicros max_delay)
      : Process(std::move(name)),
        target_(target),
        rounds_(rounds),
        burst_(burst),
        max_delay_(max_delay) {}

  void OnStart() override { ScheduleSelf(std::make_unique<TickMsg>(), 0); }

  void OnMessage(ProcessId, MessagePtr) override {
    for (int i = 0; i < burst_; ++i) {
      auto tick = std::make_unique<TickMsg>();
      tick->tag = next_tag_++;
      const TimeMicros delay =
          tick->tag % 3 == 0 ? (tick->tag * 37) % (max_delay_ + 1) : 0;
      SendAfter(target_, std::move(tick), delay);
    }
    if (++round_ < rounds_) ScheduleSelf(std::make_unique<TickMsg>(), 0);
  }

 private:
  ProcessId target_;
  int rounds_;
  int burst_;
  TimeMicros max_delay_;
  int round_ = 0;
  int64_t next_tag_ = 0;
};

/// Several senders interleave zero-delay and delayed sends to one
/// recorder; every channel must deliver in issue order.
void ExpectFifoUnderMixedLoad(LatencyModel latency) {
  constexpr int kSenders = 4;
  constexpr int kRounds = 10;
  constexpr int kBurst = 50;
  ThreadRuntime runtime(11, latency);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  std::vector<std::unique_ptr<MixedSender>> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(
        std::make_unique<MixedSender>("sender", rid, kRounds, kBurst, 200));
    runtime.Register(senders.back().get());
  }
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), static_cast<size_t>(kSenders * kRounds * kBurst));
  std::map<ProcessId, int64_t> next;
  for (const auto& [from, tag] : log) {
    ASSERT_EQ(tag, next[from]) << "channel from " << from << " reordered";
    ++next[from];
  }
}

TEST(SimRuntimeTest, DeliversInTimeOrder) {
  SimRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 5, 100);
  runtime.Register(&sender);
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(log[static_cast<size_t>(i)].second, i);
  EXPECT_EQ(runtime.events_delivered(), 5);
}

TEST(SimRuntimeTest, VirtualClockAdvances) {
  SimRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 3, 1000);
  runtime.Register(&sender);
  runtime.Run();
  auto times = recorder.times();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 1);      // FIFO bump past t=0
  EXPECT_GE(times[1], 1000);
  EXPECT_GE(times[2], 2000);
}

TEST(SimRuntimeTest, FifoPerChannelDespiteJitter) {
  // Huge jitter: without FIFO enforcement messages would reorder.
  SimRuntime runtime(7, LatencyModel::Uniform(10, 100000));
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 50, 0);
  runtime.Register(&sender);
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i)].second, i) << "reordered at " << i;
  }
}

TEST(SimRuntimeTest, IndependentChannelsInterleaveByLatency) {
  SimRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  runtime.SetChannelLatency(1, rid, LatencyModel::Fixed(10000));
  runtime.SetChannelLatency(2, rid, LatencyModel::Fixed(10));
  Sender slow("slow", rid, 1, 0);
  Sender fast("fast", rid, 1, 0);
  ProcessId slow_id = runtime.Register(&slow);
  ProcessId fast_id = runtime.Register(&fast);
  ASSERT_EQ(slow_id, 1);
  ASSERT_EQ(fast_id, 2);
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, fast_id) << "fast channel must deliver first";
  EXPECT_EQ(log[1].first, slow_id);
}

TEST(SimRuntimeTest, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](uint64_t seed) {
    SimRuntime runtime(seed, LatencyModel::Uniform(100, 5000));
    Recorder recorder("recorder");
    ProcessId rid = runtime.Register(&recorder);
    Sender a("a", rid, 10, 50);
    Sender b("b", rid, 10, 70);
    runtime.Register(&a);
    runtime.Register(&b);
    runtime.Run();
    return recorder.log();
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // different seeds draw different latencies
}

TEST(SimRuntimeTest, RunUntilStopsAtDeadline) {
  SimRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 3, 1000);
  runtime.Register(&sender);
  runtime.RunUntil(1500);
  EXPECT_EQ(recorder.log().size(), 2u);  // t=1 and t~1000
  runtime.Run();
  EXPECT_EQ(recorder.log().size(), 3u);
}

TEST(SimRuntimeTest, SelfMessagesActAsTimers) {
  class TimerProc : public Process {
   public:
    using Process::Process;
    void OnStart() override {
      ScheduleSelf(std::make_unique<TickMsg>(), 5000);
    }
    void OnMessage(ProcessId, MessagePtr) override { fired_at = Now(); }
    TimeMicros fired_at = -1;
  };
  SimRuntime runtime(1);
  TimerProc proc("timer");
  runtime.Register(&proc);
  runtime.Run();
  EXPECT_GE(proc.fired_at, 5000);
}

TEST(SimRuntimeTest, CountsMessagesByKind) {
  SimRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 4, 0);
  runtime.Register(&sender);
  runtime.Run();
  EXPECT_EQ(runtime.stats().total_messages, 4);
  EXPECT_EQ(runtime.stats().by_kind.at("Tick"), 4);
}

TEST(SimRuntimeTest, DelayedSendStaysAheadOnItsChannel) {
  SimRuntime runtime(1);
  ExpectDelayedSendStaysAhead(runtime);
}

TEST(SimRuntimeTest, OnStartSendsShareOneStartInstant) {
  SimRuntime runtime(1);
  ExpectOneStartInstant(runtime);
}

TEST(ThreadRuntimeTest, DeliversEverythingAndQuiesces) {
  ThreadRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender a("a", rid, 20, 0);
  Sender b("b", rid, 20, 0);
  runtime.Register(&a);
  runtime.Register(&b);
  runtime.Run();
  EXPECT_EQ(recorder.log().size(), 40u);
}

TEST(ThreadRuntimeTest, FifoPerChannel) {
  ThreadRuntime runtime(3, LatencyModel::Uniform(0, 2000));
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 30, 0);
  runtime.Register(&sender);
  runtime.Run();
  auto log = recorder.log();
  ASSERT_EQ(log.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i)].second, i);
  }
}

TEST(ThreadRuntimeTest, ChainedForwardingQuiesces) {
  // a -> b -> c chains: quiescence must wait for the whole cascade.
  class Forwarder : public Process {
   public:
    Forwarder(std::string name, ProcessId next)
        : Process(std::move(name)), next_(next) {}
    void OnMessage(ProcessId, MessagePtr msg) override {
      ++received;
      if (next_ != kInvalidProcess) Send(next_, std::move(msg));
    }
    ProcessId next_;
    std::atomic<int> received{0};
  };
  ThreadRuntime runtime(1);
  Forwarder c("c", kInvalidProcess);
  ProcessId cid = runtime.Register(&c);
  Forwarder b("b", cid);
  ProcessId bid = runtime.Register(&b);
  Forwarder a("a", bid);
  ProcessId aid = runtime.Register(&a);
  Sender sender("sender", aid, 10, 0);
  runtime.Register(&sender);
  runtime.Run();
  EXPECT_EQ(a.received.load(), 10);
  EXPECT_EQ(b.received.load(), 10);
  EXPECT_EQ(c.received.load(), 10);
}

TEST(ThreadRuntimeTest, DelayedSendStaysAheadOnItsChannel) {
  ThreadRuntime runtime(1);
  ExpectDelayedSendStaysAhead(runtime);
}

TEST(ThreadRuntimeTest, OnStartSendsShareOneStartInstant) {
  ThreadRuntime runtime(1);
  ExpectOneStartInstant(runtime);
}

TEST(ThreadRuntimeTest, FifoPerChannelUnderMixedDelays) {
  ExpectFifoUnderMixedLoad(LatencyModel::Zero());
}

TEST(ThreadRuntimeTest, FifoPerChannelUnderMixedDelaysAndJitter) {
  // Latency draws of 0 take the direct path, the rest the delay heap, so
  // the two paths race on every channel.
  ExpectFifoUnderMixedLoad(LatencyModel::Uniform(0, 3));
}

TEST(ThreadRuntimeTest, CountsMessagesByKind) {
  ThreadRuntime runtime(1);
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("sender", rid, 4, 0);
  runtime.Register(&sender);
  runtime.Run();
  EXPECT_EQ(runtime.stats().total_messages, 4);
  EXPECT_EQ(runtime.stats().by_kind.at("Tick"), 4);
}

}  // namespace
}  // namespace mvc

namespace mvc {
namespace {

TEST(SimRuntimeTest, TraceSinkSeesEveryDelivery) {
  SimRuntime runtime(1);
  std::vector<std::string> lines;
  runtime.SetTraceSink([&](const std::string& line) {
    lines.push_back(line);
  });
  Recorder recorder("recorder");
  ProcessId rid = runtime.Register(&recorder);
  Sender sender("the-sender", rid, 3, 100);
  runtime.Register(&sender);
  runtime.Run();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("the-sender -> recorder Tick"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("t="), std::string::npos);
  // Disabling stops the stream.
  runtime.SetTraceSink(nullptr);
}

}  // namespace
}  // namespace mvc
