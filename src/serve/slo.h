#ifndef VS_SERVE_SLO_H_
#define VS_SERVE_SLO_H_

/// \file slo.h
/// \brief Sliding-window SLO tracking per endpoint: the serving layer
/// records every request's (endpoint, latency, error) and this tracker
/// answers "is each endpoint inside its latency budget *right now*?" —
/// the question IDEBench-style interactivity evaluation asks of an
/// exploration backend (per-op tail latency against a stated budget).
///
/// Window model: samples are kept for `window_seconds` on the injected
/// Clock (FakeClock in tests) and pruned on record/snapshot; percentiles
/// are nearest-rank over the live window.  A tail percentile below
/// 1/(1-p) samples is reported as undefined rather than dressing the max
/// sample up as a p99 (same rule as the workload runner's reports).
///
/// Burn accounting: a request over its endpoint's budget increments a
/// cumulative *burn counter* (exported as `slo.breaches.<endpoint>` in
/// /metrics) at record time, independent of the window — alert math wants
/// monotonic counters, the window answers "now".
///
/// Exported series (all in the default MetricsRegistry, visible on
/// /metrics after ExportMetrics — ServeApp calls it per scrape):
///   slo.breaches.<endpoint>          counter, cumulative over-budget
///   slo.errors.<endpoint>            counter, cumulative status >= 500
///   slo.window_p50_ms.<endpoint>     gauge (-1 when undefined)
///   slo.window_p95_ms.<endpoint>     gauge (-1 when undefined)
///   slo.window_p99_ms.<endpoint>     gauge (-1 when undefined)
///   slo.window_error_rate.<endpoint> gauge in [0, 1]

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace vs::serve {

struct SloOptions {
  /// How long a sample stays in the window.
  double window_seconds = 60.0;
  /// Latency budget applied to every endpoint; 0 disables budget
  /// accounting (percentiles and error rates are still tracked).
  double budget_ms = 0.0;
  /// Hard cap on retained samples per endpoint (memory bound under
  /// traffic far denser than the window is wide).
  size_t max_samples_per_endpoint = 8192;
  /// Time source; nullptr = the real steady clock.
  const Clock* clock = nullptr;
};

/// \brief Point-in-time view of one endpoint's window (for /statusz).
struct SloEndpointSnapshot {
  std::string endpoint;
  size_t window_samples = 0;
  uint64_t total_requests = 0;   ///< cumulative, not windowed
  uint64_t total_errors = 0;     ///< cumulative status >= 500
  uint64_t budget_breaches = 0;  ///< cumulative over-budget requests
  double budget_ms = 0.0;        ///< 0 = no budget configured
  /// Nearest-rank percentiles over the window; negative = undefined
  /// (too few samples for that tail, see PercentileDefined).
  double p50_ms = -1.0;
  double p95_ms = -1.0;
  double p99_ms = -1.0;
  double window_error_rate = 0.0;
  /// False iff a budget is configured and the window's p99 (or p50 when
  /// p99 is undefined) exceeds it.
  bool healthy = true;
};

/// Is a nearest-rank estimate of percentile \p p meaningful over
/// \p samples observations?  (p99 needs >= 100.)
bool SloPercentileDefined(size_t samples, double p);

class SloTracker {
 public:
  explicit SloTracker(const SloOptions& options);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one served request.  \p error marks server-side failures
  /// (HTTP 5xx) — client errors are not SLO burn.
  void Record(const std::string& endpoint, double latency_seconds,
              bool error);

  /// Window state of every endpoint seen so far, sorted by name.
  std::vector<SloEndpointSnapshot> Snapshot() const;

  /// Pushes current window gauges into the default MetricsRegistry
  /// (called once per /metrics scrape; counters update at Record time).
  void ExportMetrics() const;

  const SloOptions& options() const { return options_; }

 private:
  struct Sample {
    int64_t t_us = 0;
    float latency_ms = 0.0f;
    bool error = false;
  };

  struct Endpoint {
    std::deque<Sample> window;
    uint64_t total_requests = 0;
    uint64_t total_errors = 0;
    uint64_t budget_breaches = 0;
  };

  int64_t NowMicros() const { return clock_->NowMicros(); }
  void PruneLocked(Endpoint& endpoint, int64_t now_us) const;
  SloEndpointSnapshot SnapshotLocked(const std::string& name,
                                     const Endpoint& endpoint) const;

  const SloOptions options_;
  const Clock* const clock_;

  mutable std::mutex mu_;
  mutable std::map<std::string, Endpoint> endpoints_;
};

}  // namespace vs::serve

#endif  // VS_SERVE_SLO_H_
