// A warehouse reader: the Section 1.1 customer-inquiry application.
//
// Issues atomic multi-view reads against the warehouse at scheduled
// times and records every snapshot it receives, so tests and examples
// can verify *reader-visible* mutual consistency — not only the
// oracle's post-hoc view of commit states, but what an application
// concurrently querying the warehouse would actually have seen.
//
// The warehouse answers with an O(1) MVCC SnapshotHandle; the reader
// materializes it into flat Tables here, at the consumption boundary,
// so the flattening cost lands on the reader, never on the warehouse
// actor. Readers are pool-friendly: WarehouseSystem::AttachReaderPool
// spawns N of them with independent Poisson schedules, and each records
// its request round-trips into read.latency_us when observability is on.

#pragma once

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"
#include "net/runtime.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/id_registry.h"

namespace mvc {

/// A Poisson-process read schedule: `count` arrival times after `start`
/// with exponential inter-arrival gaps of the given mean (microseconds).
/// Deterministic in the seed, like every draw in the library.
inline std::vector<TimeMicros> PoissonReadSchedule(uint64_t seed,
                                                   size_t count,
                                                   double mean_interval_us,
                                                   TimeMicros start = 0) {
  Rng rng(seed);
  std::vector<TimeMicros> at;
  at.reserve(count);
  double t = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    t += rng.Exponential(mean_interval_us);
    at.push_back(static_cast<TimeMicros>(t));
  }
  return at;
}

/// Query-workload settings for a reader (pool): instead of flattening
/// whole views with ReadViewsMsg, the reader ships ScanQuerys to the
/// warehouse (QueryViewMsg) with Zipf-skewed view popularity and bursty
/// arrivals — the production read-tier simulation.
struct ReaderQueryOptions {
  bool enabled = false;
  /// Zipf skew over the reader's view list: the first views are the hot
  /// ones. 0 = uniform popularity.
  double zipf_theta = 0.99;
  /// Queries issued per Poisson arrival (a burst lands at one instant,
  /// which is what saturates admission control).
  size_t burst = 1;
  /// Column the range queries bound; must exist in every queried view.
  std::string column;
  /// Key domain range endpoints are drawn from.
  int64_t key_min = 0;
  int64_t key_max = 0;
  /// Each query covers [lo, lo + range_width] inclusive.
  int64_t range_width = 0;
};

/// Configuration for WarehouseSystem::AttachReaderPool.
struct ReaderPoolOptions {
  /// Number of independent reader processes.
  size_t num_readers = 1;
  /// Reads each reader issues over the run.
  size_t reads_per_reader = 8;
  /// Mean of the exponential inter-read gap (Poisson arrivals).
  double mean_interval_us = 1000.0;
  /// First read happens at or after this time.
  TimeMicros start = 0;
  /// Root seed; each reader gets a forked stream.
  uint64_t seed = 17;
  /// View names to read atomically (empty = every view).
  std::vector<std::string> views;
  /// Scan-query workload (off = classic whole-view reads).
  ReaderQueryOptions query;
};

class WarehouseReader : public Process {
 public:
  /// Reads `views` (interned ids; empty = all views) from `warehouse` at
  /// each time in `read_at` (simulated microseconds from start).
  WarehouseReader(std::string name, std::vector<ViewId> views,
                  std::vector<TimeMicros> read_at)
      : Process(std::move(name)),
        views_(std::move(views)),
        read_at_(std::move(read_at)) {}

  void SetWarehouse(ProcessId warehouse) { warehouse_ = warehouse; }

  /// Makes every read a time-travel read of the given commit instead of
  /// a read of the current state. A commit that has been garbage-
  /// collected produces an Observation with a non-empty error.
  void SetAsOfCommit(int64_t commit) { as_of_commit_ = commit; }

  /// Switches this reader to the scan-query workload: each scheduled
  /// arrival issues `query.burst` QueryViewMsgs against Zipf-picked
  /// views. Must be called before EnableObservability and before the
  /// runtime starts. `seed` drives the view/range draws.
  void SetQueryOptions(const ReaderQueryOptions& query, uint64_t seed) {
    MVC_CHECK(!views_.empty()) << "query workload needs a view list";
    query_ = query;
    query_rng_ = Rng(seed);
  }

  /// Bounds on the in-flight request map: entries older than `ttl_us`
  /// are aged out at the next arrival (responses lost to a warehouse
  /// crash must not leak forever), and the map never exceeds `max_size`
  /// entries (oldest evicted first).
  void SetInFlightLimits(TimeMicros ttl_us, size_t max_size) {
    in_flight_ttl_us_ = ttl_us;
    in_flight_cap_ = max_size;
  }

  /// Registers this reader's read.latency_us histogram (and
  /// read.query_latency_us when the query workload is on). Must happen
  /// at wiring time, before the runtime starts.
  void EnableObservability(obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    latency_us_ = metrics->RegisterHistogram(
        std::string("read.latency_us{process=\"") + name() + "\"}", "us");
    if (query_.enabled) {
      query_latency_us_ = metrics->RegisterHistogram(
          std::string("read.query_latency_us{process=\"") + name() + "\"}",
          "us");
    }
  }

  struct Observation {
    TimeMicros at = 0;
    int64_t as_of_commit = 0;
    std::vector<Table> snapshots;
    /// Non-empty when the warehouse refused the read (e.g. the requested
    /// version fell out of the retained window).
    std::string error;
    bool ok() const { return error.empty(); }
  };
  const std::vector<Observation>& observations() const {
    return observations_;
  }

  /// One answered (or shed) scan query, with the query kept verbatim so
  /// property tests can replay it against an oracle snapshot.
  struct QueryObservation {
    TimeMicros at = 0;
    int64_t as_of_commit = -1;
    ViewId view = kInvalidView;
    ScanQuery query;
    std::vector<Row> rows;
    int64_t matched_count = 0;
    int64_t rows_scanned = 0;
    bool shed = false;
    std::string error;
    bool ok() const { return error.empty() && !shed; }
  };
  const std::vector<QueryObservation>& query_observations() const {
    return query_observations_;
  }

  /// Shed responses received (admission control rejections).
  int64_t queries_shed() const { return queries_shed_; }
  /// In-flight entries dropped by TTL/cap hygiene (lost responses).
  int64_t in_flight_expired() const { return in_flight_expired_; }
  size_t in_flight_size() const { return in_flight_.size(); }

  void OnStart() override {
    for (TimeMicros at : read_at_) {
      auto tick = std::make_unique<TickMsg>();
      ScheduleSelf(std::move(tick), at);
    }
  }

  void OnMessage(ProcessId from, MessagePtr msg) override {
    (void)from;
    switch (msg->kind) {
      case Message::Kind::kTick: {
        AgeOutInFlight();
        if (query_.enabled) {
          IssueQueryBurst();
          return;
        }
        auto read = std::make_unique<ReadViewsMsg>();
        read->request_id = ++next_request_;
        read->views = views_;
        read->as_of_commit = as_of_commit_;
        InFlightRequest sent;
        sent.sent_at = Now();
        TrackInFlight(read->request_id, std::move(sent));
        Send(warehouse_, std::move(read));
        return;
      }
      case Message::Kind::kViewsSnapshot: {
        auto* snap = static_cast<ViewsSnapshotMsg*>(msg.get());
        auto sent = in_flight_.find(snap->request_id);
        if (sent != in_flight_.end()) {
          // Single lookup: record the round trip and retire the entry.
          if (latency_us_ != nullptr) {
            latency_us_->Record(Now() - sent->second.sent_at);
          }
          in_flight_.erase(sent);
        }
        Observation obs;
        obs.at = Now();
        obs.as_of_commit = snap->as_of_commit;
        obs.error = snap->error;
        // Materialize the handle here, on the reader — the consumption
        // boundary — and release it so the version can be collected.
        if (snap->ok()) obs.snapshots = snap->TakeTables();
        snap->handle.Release();
        observations_.push_back(std::move(obs));
        return;
      }
      case Message::Kind::kQueryResult: {
        auto* result = static_cast<QueryResultMsg*>(msg.get());
        QueryObservation obs;
        obs.at = Now();
        auto sent = in_flight_.find(result->request_id);
        if (sent != in_flight_.end()) {
          if (query_latency_us_ != nullptr) {
            query_latency_us_->Record(Now() - sent->second.sent_at);
          }
          obs.view = sent->second.view;
          obs.query = std::move(sent->second.query);
          in_flight_.erase(sent);
        }
        obs.as_of_commit = result->as_of_commit;
        obs.rows = std::move(result->rows);
        obs.matched_count = result->matched_count;
        obs.rows_scanned = result->rows_scanned;
        obs.shed = result->shed;
        obs.error = result->error;
        if (result->shed) ++queries_shed_;
        query_observations_.push_back(std::move(obs));
        return;
      }
      default:
        MVC_LOG_ERROR() << "reader: unexpected message " << msg->Summary();
    }
  }

 private:
  /// Context kept per unanswered request; queries keep their ScanQuery
  /// so the eventual response can be checked against an oracle.
  struct InFlightRequest {
    TimeMicros sent_at = 0;
    ViewId view = kInvalidView;
    ScanQuery query;
  };

  /// Drops entries whose response is presumed lost (older than the TTL)
  /// and enforces the hard size cap, oldest first — request ids are
  /// monotonic, so map order is send order. Without this a reader
  /// outliving a crashed warehouse grows in_flight_ without bound.
  void AgeOutInFlight() {
    const TimeMicros now = Now();
    while (!in_flight_.empty()) {
      const auto& oldest = *in_flight_.begin();
      const bool expired = in_flight_ttl_us_ > 0 &&
                           now - oldest.second.sent_at > in_flight_ttl_us_;
      const bool over_cap =
          in_flight_cap_ > 0 && in_flight_.size() >= in_flight_cap_;
      if (!expired && !over_cap) break;
      in_flight_.erase(in_flight_.begin());
      ++in_flight_expired_;
    }
  }

  void TrackInFlight(int64_t request_id, InFlightRequest request) {
    in_flight_[request_id] = std::move(request);
  }

  /// One Poisson arrival in query mode: `burst` scan queries against
  /// Zipf-picked views (the first views in the list are the popular
  /// ones), each covering a uniform random key range.
  void IssueQueryBurst() {
    for (size_t i = 0; i < std::max<size_t>(1, query_.burst); ++i) {
      const ViewId view = views_[static_cast<size_t>(
          query_rng_.Zipf(static_cast<int64_t>(views_.size()),
                          query_.zipf_theta))];
      const int64_t span = query_.key_max - query_.key_min;
      const int64_t max_lo =
          query_.key_min + (span > query_.range_width
                                ? span - query_.range_width
                                : 0);
      const int64_t lo = query_rng_.UniformInt(query_.key_min, max_lo);
      auto msg = std::make_unique<QueryViewMsg>();
      msg->request_id = ++next_request_;
      msg->view = view;
      msg->as_of_commit = as_of_commit_;
      msg->query = ScanQuery::Range(query_.column, Value(lo),
                                    Value(lo + query_.range_width));
      InFlightRequest sent;
      sent.sent_at = Now();
      sent.view = view;
      sent.query = msg->query;
      TrackInFlight(msg->request_id, std::move(sent));
      Send(warehouse_, std::move(msg));
    }
  }

  std::vector<ViewId> views_;
  std::vector<TimeMicros> read_at_;
  ProcessId warehouse_ = kInvalidProcess;
  int64_t as_of_commit_ = -1;
  int64_t next_request_ = 0;
  ReaderQueryOptions query_;
  Rng query_rng_{0};
  /// request_id -> send context; bounded by AgeOutInFlight.
  std::map<int64_t, InFlightRequest> in_flight_;
  TimeMicros in_flight_ttl_us_ = 60 * 1000 * 1000;
  size_t in_flight_cap_ = 1024;
  int64_t in_flight_expired_ = 0;
  int64_t queries_shed_ = 0;
  obs::Histogram* latency_us_ = nullptr;
  obs::Histogram* query_latency_us_ = nullptr;
  std::vector<Observation> observations_;
  std::vector<QueryObservation> query_observations_;
};

}  // namespace mvc
