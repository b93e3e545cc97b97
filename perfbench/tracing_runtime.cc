#include "tracing_runtime.h"

#include <sys/resource.h>
#include <time.h>

#include <chrono>

#include "net/protocol.h"

namespace perfbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

WallSimRuntime::WallSimRuntime(uint64_t seed)
    : mvc::SimRuntime(seed, mvc::LatencyModel::Zero()) {}

mvc::TimeMicros WallSimRuntime::Now() const { return WallNs() / 1000; }

/// Stands in for one process inside the inner runtime and times each of
/// its deliveries. Only the inner runtime's thread for this process
/// touches spans_ until Run() returns.
class TracingRuntime::Proxy : public mvc::Process {
 public:
  Proxy(TracingRuntime* owner, mvc::Process* target)
      : mvc::Process(target->name()), owner_(owner), target_(target) {}

  void OnStart() override { target_->OnStart(); }

  void OnMessage(mvc::ProcessId from, mvc::MessagePtr msg) override {
    const Stamp stamp = owner_->TakeStamp(id(), msg.get());
    Span span;
    span.kind = msg->kind;
    span.from = from;
    span.to = id();
    span.sent_ns = stamp.sent_ns;
    span.delay_us = stamp.delay_us;
    if (msg->kind == mvc::Message::Kind::kRelSet) {
      span.rel_views = static_cast<int32_t>(
          static_cast<const mvc::RelSetMsg&>(*msg).views.size());
    }
    const int64_t cpu0 = ThreadCpuNs();
    span.start_ns = WallNs();
    target_->Deliver(from, std::move(msg));
    span.end_ns = WallNs();
    span.cpu_ns = ThreadCpuNs() - cpu0;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  TracingRuntime* owner_;
  mvc::Process* target_;
  std::vector<Span> spans_;
};

TracingRuntime::TracingRuntime(std::unique_ptr<mvc::Runtime> inner)
    : inner_(std::move(inner)) {}

TracingRuntime::~TracingRuntime() = default;

void TracingRuntime::Attach() {
  if (!proxies_.empty()) return;
  for (size_t i = 0; i < processes_.size(); ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
    proxies_.push_back(std::make_unique<Proxy>(this, processes_[i]));
    const mvc::ProcessId pid = inner_->Register(proxies_.back().get());
    MVC_CHECK(pid == static_cast<mvc::ProcessId>(i));
  }
}

void TracingRuntime::Send(mvc::ProcessId from, mvc::ProcessId to,
                          mvc::MessagePtr msg, mvc::TimeMicros send_delay) {
  MVC_CHECK(to >= 0 && static_cast<size_t>(to) < inboxes_.size());
  {
    // Stamp before handing off: on the thread runtime the receiver may
    // run the message before inner Send returns.
    Inbox& inbox = *inboxes_[to];
    std::lock_guard<std::mutex> lock(inbox.mu);
    inbox.stamps[msg.get()] = Stamp{WallNs(), send_delay};
  }
  inner_->Send(from, to, std::move(msg), send_delay);
}

TracingRuntime::Stamp TracingRuntime::TakeStamp(mvc::ProcessId to,
                                                const mvc::Message* msg) {
  Inbox& inbox = *inboxes_[to];
  std::lock_guard<std::mutex> lock(inbox.mu);
  auto it = inbox.stamps.find(msg);
  MVC_CHECK(it != inbox.stamps.end()) << "delivery without a send stamp";
  const Stamp stamp = it->second;
  inbox.stamps.erase(it);
  return stamp;
}

void TracingRuntime::Run() {
  Attach();
  inner_->Run();
}

std::vector<Span> TracingRuntime::CollectSpans() const {
  std::vector<Span> all;
  for (const auto& proxy : proxies_) {
    all.insert(all.end(), proxy->spans().begin(), proxy->spans().end());
  }
  return all;
}

}  // namespace perfbench
