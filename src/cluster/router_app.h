#ifndef VS_CLUSTER_ROUTER_APP_H_
#define VS_CLUSTER_ROUTER_APP_H_

/// \file router_app.h
/// \brief The cluster front-end: consistent-hash session routing over N
/// `viewseeker serve` workers, with health checking and live migration.
///
/// One ClusterRouter is the handler behind a `viewseeker route` process
/// (or an in-process HttpServer in tests).  Responsibilities:
///
///  * *Placement*: the router generates every session id itself, hashes
///    it onto the ring (hash_ring.h) and creates the session on the
///    owning worker via `POST /sessions?id=<id>` — so subsequent
///    requests for the id route statelessly by re-hashing.  Sessions the
///    ring maps elsewhere after a migration are tracked in an override
///    map (in-memory; a router restart forgets overrides, so operators
///    should migrate back or restart workers too — see
///    docs/ARCHITECTURE.md "Cluster topology").
///  * *Forwarding*: the full session wire protocol passes through with
///    one request id end-to-end (client's sanitized `X-Request-Id`, or
///    a generated `rt-<n>`) and an `X-Shard` header stamped on every
///    response naming the worker that served it.  Idempotent methods
///    (GET/DELETE) retry transport failures *and* 503 sheds with
///    backoff; creates retry with a *fresh* id, which re-rolls the
///    placement onto another shard — a failed create acked nothing, so
///    this is safe.  Non-idempotent forwards (label) are never retried.
///  * *Health*: a background prober sweeps `/healthz` on every worker;
///    a consecutive-miss failure detector (failure_detector.h) ejects a
///    worker after `eject_after` misses and re-admits it on the first
///    successful probe.  Requests owned by an ejected worker answer 503
///    without a connection attempt.
///  * *Aggregation*: the router's own `/healthz`, `/metrics` (merged
///    exposition, prom_merge.h) and `/statusz` summarize the cluster.
///  * *Migration*: `POST /admin/migrate {"session","to"}` drains the
///    session's in-flight requests at the router (new ones hold, bounded
///    by migrate_hold_seconds), exports the session on its current
///    worker through the durable snapshot path, imports the bytes
///    verbatim on the target, flips the override, then deletes the
///    source copy.  Any failure before the flip leaves the session
///    exactly where it was; the client sees held requests complete
///    normally, never a 5xx caused by the handoff.
///
/// Overload resilience (docs/ARCHITECTURE.md "Overload & degradation"):
///
///  * *Deadline propagation*: a client `X-Deadline-Ms` header is parsed
///    at arrival, decremented by the router's own elapsed time at every
///    hop (DecrementedDeadlineMs), and forwarded to the worker as the
///    *remaining* budget.  A request whose budget is already spent is
///    answered 504 without dialing the worker.
///  * *Circuit breakers*: each shard carries a CircuitBreaker fed by
///    data-path forward outcomes (HTTP 5xx = failure).  An open breaker
///    answers 503 + `Retry-After` without a connection attempt and
///    half-open probing lets one request test recovery — distinct from
///    detector ejection, which tracks transport-level liveness.
///  * *Retry budget*: one RetryBudget gates every retry the router takes
///    (client backoff retries, idempotent 503 re-forwards, create
///    re-placements).  When the bucket is dry, first attempts still pass
///    but retry amplification drops to 1x.
///
/// Exported metrics (default registry, prefix `cluster.`):
///   cluster.requests_forwarded      counter, forwards attempted
///   cluster.forward_errors          counter, forwards that answered 502
///   cluster.forward_retries         counter, backoff retries taken
///   cluster.retries_503             counter, create re-placements after
///                                   a worker shed the create with 503
///   cluster.rejected_unavailable    counter, 503s for ejected shards
///   cluster.shard_ejections         counter, detector ejection events
///   cluster.shard_readmissions      counter, detector re-admissions
///   cluster.migrations              counter, completed migrations
///   cluster.migration_failures      counter, aborted migrations
///   cluster.breaker_opens           counter, breaker trip transitions
///   cluster.breaker_rejects         counter, 503s for open breakers
///   cluster.retries_suppressed      counter, retries the budget refused
///   cluster.deadline_rejects        counter, 504s for spent deadlines
///   cluster.retry_budget_tokens     gauge, tokens left in the budget
///   cluster.shard_requests.<name>   counter, forwards per shard
///   cluster.forward_seconds.<name>  histogram, forward latency
///   cluster.shard_up.<name>         gauge, 1 = serving, 0 = ejected

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/failure_detector.h"
#include "cluster/hash_ring.h"
#include "cluster/retry_budget.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/http.h"

namespace vs::cluster {

/// Remaining deadline budget after spending \p elapsed_ms at this hop:
/// `max(0, deadline_ms - elapsed_ms)`.  A zero/negative \p deadline_ms
/// means "no deadline" and maps to 0 ("none") — callers must check
/// has-deadline before interpreting the result as "expired".
double DecrementedDeadlineMs(double deadline_ms, double elapsed_ms);

struct ShardAddress {
  std::string name;  ///< [A-Za-z0-9._-], unique; appears in metric names
  std::string host = "127.0.0.1";
  int port = 0;
};

struct ClusterRouterOptions {
  std::vector<ShardAddress> shards;
  int virtual_nodes = 128;
  /// Consecutive probe/forward misses before a worker is ejected.
  int eject_after = 3;
  /// Background health-probe cadence; <= 0 disables the thread (tests
  /// drive ProbeNow() explicitly).
  double probe_interval_seconds = 1.0;
  /// Socket timeout for one worker exchange (forward or probe).
  double forward_timeout_seconds = 10.0;
  /// Attempt budget for retryable forwards and for create re-placement.
  int forward_attempts = 3;
  double retry_backoff_seconds = 0.05;
  /// Longest a request for a migrating session is held at the router
  /// (and the longest a migrate waits for in-flight drain).
  double migrate_hold_seconds = 10.0;
  /// Per-shard overload breaker (circuit_breaker.h); trips on HTTP 5xx
  /// from the data path, distinct from detector ejection.
  CircuitBreakerOptions breaker;
  /// Router-global retry budget (retry_budget.h) gating backoff retries,
  /// idempotent 503 re-forwards and create re-placements.
  RetryBudgetOptions retry_budget;
  /// Rendered verbatim in /statusz ("{}" when empty).
  std::string config_json;
  /// Session-id generation salt.
  uint64_t seed = 0xc105;
};

class ClusterRouter {
 public:
  explicit ClusterRouter(ClusterRouterOptions options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Validates the shard list, builds the ring, runs one synchronous
  /// probe sweep (so /healthz is meaningful immediately) and starts the
  /// background prober.  Fails on empty/duplicate/invalid shard names.
  vs::Status Start();
  /// Stops the prober.  Idempotent; the destructor calls it.
  void Stop();

  /// Transport entry point (give this to an HttpServer).
  serve::HttpResponse Handle(const serve::HttpRequest& request);

  /// \name Introspection (tests, /statusz).
  /// @{
  /// Where a session routes right now (override map, then ring).
  vs::Result<std::string> ShardForSession(const std::string& id) const;
  bool ShardEjected(const std::string& name) const;
  /// Breaker state for a shard (kOpen for unknown names — nothing routes
  /// there anyway).
  BreakerState ShardBreakerState(const std::string& name) const;
  const RetryBudget& retry_budget() const { return retry_budget_; }
  uint64_t deadline_rejects() const {
    return deadline_rejects_.load(std::memory_order_relaxed);
  }
  /// One synchronous probe sweep over all shards.
  void ProbeNow();
  uint64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }
  uint64_t migration_failures() const {
    return migration_failures_.load(std::memory_order_relaxed);
  }
  /// @}

 private:
  struct Shard {
    Shard(ShardAddress addr, FailureDetectorOptions detector_options,
          CircuitBreakerOptions breaker_options)
        : address(std::move(addr)),
          detector(detector_options),
          breaker(breaker_options) {}

    ShardAddress address;
    FailureDetector detector;
    CircuitBreaker breaker;
    /// Idle keep-alive connections to this worker (HttpClient is
    /// single-connection and not thread-safe, so concurrent forwards
    /// each borrow one and return it after the exchange).
    std::mutex pool_mu;
    std::vector<std::unique_ptr<serve::HttpClient>> pool;
    obs::Counter* requests = nullptr;
    obs::Histogram* forward_seconds = nullptr;
    obs::Gauge* up = nullptr;
  };

  /// Per-session hold state during migration.  An entry exists only
  /// while a migration is running or requests are in flight.
  struct SessionGate {
    int inflight = 0;
    bool migrating = false;
  };

  /// Result of one worker exchange.
  struct ForwardOutcome {
    vs::Result<serve::ClientResponse> response =
        vs::Status::Internal("no exchange attempted");
    double seconds = 0.0;
  };

  /// Per-request deadline budget, decremented by this hop's elapsed time
  /// (see DecrementedDeadlineMs).  deadline_ms == 0 means "none".
  struct RequestBudget {
    double deadline_ms = 0.0;
    Stopwatch elapsed;

    bool has_deadline() const { return deadline_ms > 0.0; }
    double remaining_ms() const {
      return DecrementedDeadlineMs(deadline_ms,
                                   elapsed.ElapsedSeconds() * 1e3);
    }
    /// Spent once less than the forwarded header's 1 µs resolution is
    /// left: a smaller remainder would reach the worker as "0.000", which
    /// reads as no deadline at all.
    bool expired() const { return has_deadline() && remaining_ms() < 1e-3; }
  };

  Shard* FindShard(const std::string& name);
  const Shard* FindShard(const std::string& name) const;

  std::string NewSessionId();
  std::string RequestId(const serve::HttpRequest& request);

  /// Borrow-a-connection exchange with `shard`; feeds the detector and
  /// per-shard metrics.  `retry_503` selects the idempotent policy.
  /// `budget` (nullable) forwards the remaining deadline as X-Deadline-Ms
  /// and caps the retry deadline.  `data_path` = this exchange carries
  /// client traffic: its outcome feeds the shard's circuit breaker and
  /// the global retry budget (probes and aggregation stay out so a
  /// healthy /healthz cannot mask a failing data path).
  ForwardOutcome Exchange(Shard& shard, std::string_view method,
                          std::string_view target, std::string_view body,
                          const std::string& request_id, bool retry_503,
                          const RequestBudget* budget = nullptr,
                          bool data_path = false);

  /// Exchange + render: maps transport failure to 502 and stamps
  /// X-Request-Id / X-Shard / X-Request-Stages.
  serve::HttpResponse ForwardToShard(Shard& shard,
                                     const serve::HttpRequest& request,
                                     const std::string& request_id,
                                     bool retry_503,
                                     const RequestBudget* budget);

  serve::HttpResponse HandleCreate(const serve::HttpRequest& request,
                                   const std::string& request_id,
                                   const RequestBudget& budget);
  serve::HttpResponse HandleSession(const serve::HttpRequest& request,
                                    const std::string& session_id,
                                    const std::string& request_id,
                                    const RequestBudget& budget);
  serve::HttpResponse HandleMigrate(const serve::HttpRequest& request,
                                    const std::string& request_id);
  serve::HttpResponse AggregateHealthz();
  serve::HttpResponse AggregateMetrics();
  serve::HttpResponse AggregateStatusz();

  /// Blocks while `id` is migrating (bounded); registers the request.
  vs::Status EnterSession(const std::string& id);
  void ExitSession(const std::string& id);
  /// Marks `id` migrating and waits for in-flight drain (bounded).
  vs::Status BeginMigrate(const std::string& id);
  void EndMigrate(const std::string& id);

  void ProbeShard(Shard& shard);
  void ProbeLoop();

  ClusterRouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Stopwatch uptime_;

  mutable std::mutex override_mu_;
  std::map<std::string, std::string> overrides_;  ///< session -> shard

  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::map<std::string, SessionGate> gates_;

  std::mutex id_mu_;
  uint64_t id_counter_ = 0;
  Rng id_rng_;

  std::atomic<uint64_t> request_sequence_{0};
  std::atomic<uint64_t> migrations_{0};
  std::atomic<uint64_t> migration_failures_{0};
  std::atomic<uint64_t> deadline_rejects_{0};
  RetryBudget retry_budget_;

  std::thread prober_;
  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool stop_prober_ = false;
  bool started_ = false;
};

}  // namespace vs::cluster

#endif  // VS_CLUSTER_ROUTER_APP_H_
