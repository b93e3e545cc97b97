#include "net/thread_runtime.h"

#include <algorithm>
#include <chrono>

namespace mvc {

ThreadRuntime::ThreadRuntime(uint64_t seed, LatencyModel default_latency)
    : rng_(seed), default_latency_(default_latency) {
  start_ = std::chrono::steady_clock::now();
}

ThreadRuntime::~ThreadRuntime() {
  // Run() joins everything; nothing should be live here.
  MVC_CHECK(!running_);
}

TimeMicros ThreadRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

TimeMicros ThreadRuntime::DrawLatency(ProcessId from, ProcessId to) {
  if (from == to) return 0;
  if (default_latency_.jitter <= 0) return default_latency_.fixed;
  std::lock_guard<std::mutex> lock(rng_mu_);
  return default_latency_.fixed + rng_.UniformInt(0, default_latency_.jitter);
}

void ThreadRuntime::Send(ProcessId from, ProcessId to, MessagePtr msg,
                         TimeMicros send_delay) {
  MVC_CHECK(to >= 0 && static_cast<size_t>(to) < processes_.size());
  MVC_CHECK(pending_ != nullptr) << "ThreadRuntime::Send before Run()";
  CountMessage(*msg);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const TimeMicros delay = send_delay + DrawLatency(from, to);
  std::atomic<int32_t>& pending = pending_[ChannelIndex(from, to)];
  if (delay <= 0 && pending.load(std::memory_order_acquire) == 0) {
    // Every earlier message on this channel is already in the mailbox,
    // so pushing now keeps issue order.
    PushToMailbox(from, to, msg.release());
    return;
  }
  TimeMicros deadline = (starting_ ? run_start_ : Now()) + delay;
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    if (from != to) {
      // FIFO per network channel; self messages are timers (see
      // SimRuntime::Send).
      TimeMicros& last = channel_last_[ChannelIndex(from, to)];
      deadline = std::max(deadline, last + 1);
      last = deadline;
    }
    pending.fetch_add(1, std::memory_order_relaxed);
    delay_heap_.push(Pending{deadline, next_seq_++, from, to, msg.release()});
  }
  dispatch_cv_.notify_one();
}

void ThreadRuntime::PushToMailbox(ProcessId from, ProcessId to,
                                  Message* msg) {
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.emplace_back(from, msg);
  }
  box.cv.notify_one();
}

void ThreadRuntime::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(dispatch_mu_);
  for (;;) {
    if (stopping_) break;
    if (delay_heap_.empty()) {
      dispatch_cv_.wait(lock);
      continue;
    }
    TimeMicros next = delay_heap_.top().deadline;
    TimeMicros now = Now();
    if (next > now) {
      dispatch_cv_.wait_for(lock, std::chrono::microseconds(next - now));
      continue;
    }
    Pending p = delay_heap_.top();
    delay_heap_.pop();
    lock.unlock();
    PushToMailbox(p.from, p.to, p.msg);
    pending_[ChannelIndex(p.from, p.to)].fetch_sub(1,
                                                   std::memory_order_release);
    lock.lock();
  }
}

void ThreadRuntime::WorkerLoop(ProcessId id) {
  Mailbox& box = *mailboxes_[id];
  for (;;) {
    std::pair<ProcessId, Message*> item;
    {
      std::unique_lock<std::mutex> lock(box.mu);
      box.cv.wait(lock, [&] { return stopping_ || !box.queue.empty(); });
      if (box.queue.empty()) return;  // stopping and drained
      item = box.queue.front();
      box.queue.pop_front();
    }
    processes_[id]->Deliver(item.first, MessagePtr(item.second));
    OnHandled();
  }
}

void ThreadRuntime::OnHandled() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Under the lock, so Run() cannot miss it between its check and its
    // wait.
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ThreadRuntime::Run() {
  running_ = true;
  const size_t n = processes_.size();
  mailboxes_.clear();
  for (size_t i = 0; i < n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  pending_ = std::make_unique<std::atomic<int32_t>[]>(n * n);
  channel_last_.assign(n * n, 0);

  // The start instant is read before the first OnStart, so no deadline
  // precedes a stamp the caller took before calling Run().
  run_start_ = Now();
  starting_ = true;
  for (Process* p : processes_) p->OnStart();
  starting_ = false;

  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  for (size_t i = 0; i < processes_.size(); ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<ProcessId>(i)); });
  }

  // Quiescence: every sent message has been fully handled.
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }

  // Tear down.
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  for (auto& box : mailboxes_) {
    // Notify under the mailbox lock: a worker that evaluated its wait
    // predicate before stopping_ was set but has not blocked yet still
    // holds box.mu, so an unlocked notify here could land in that window
    // and be lost, leaving the worker asleep forever.
    std::lock_guard<std::mutex> box_lock(box->mu);
    box->cv.notify_all();
  }
  dispatcher_.join();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  running_ = false;
}

}  // namespace mvc
