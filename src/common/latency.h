#ifndef VS_COMMON_LATENCY_H_
#define VS_COMMON_LATENCY_H_

/// \file latency.h
/// \brief Shared latency accounting: nearest-rank percentiles, the
/// "is this percentile meaningful" rule, and a recorder/summary pair.
///
/// The workload runner (src/workload/) and serve/slo.cc both summarize
/// latencies through this one definition of the nearest-rank index
/// formula and the defined-percentile rule, which keeps client-side and
/// server-side reports comparable by construction:
///
///   * nearest-rank index: min(n-1, floor(p*(n-1) + 0.5)) over the sorted
///     samples;
///   * defined rule: a percentile p is only meaningful with at least
///     1/(1-p) samples (p99 needs 100); below that the estimate is just
///     the max sample dressed up as a tail, so it reports as undefined;
///   * tail rule: the tail used for budget verdicts is p99 when defined,
///     else p50 — the rule serve::SloTracker applies.
///
/// Units: LatencyRecorder::Record takes seconds (what Stopwatch yields);
/// summaries are in milliseconds (what budgets are stated in).  The free
/// percentile helpers are unit-agnostic.

#include <cstddef>
#include <vector>

namespace vs {

/// Is a nearest-rank estimate of percentile \p p meaningful over
/// \p samples observations?  (p99 needs >= 100.)
bool LatencyPercentileDefined(size_t samples, double p);

/// Index of the nearest-rank percentile \p p over \p n sorted samples;
/// requires n > 0.
size_t LatencyPercentileIndex(size_t n, double p);

/// Nearest-rank percentile over ascending \p sorted values (any unit);
/// returns -1 when empty.  Does not apply the defined rule — callers that
/// want "n/a" below the sample floor check LatencyPercentileDefined first.
double LatencyPercentileSorted(const std::vector<double>& sorted, double p);

/// \brief Distribution summary of one endpoint's (or one run's) latencies,
/// in milliseconds.  Percentiles are -1 when undefined per the rule above.
struct LatencySummary {
  size_t count = 0;
  double p50_ms = -1.0;
  double p95_ms = -1.0;
  double p99_ms = -1.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  /// The budget the summary was taken against; 0 = none configured.
  double budget_ms = 0.0;
  /// Samples at or under the budget (meaningful only when budget_ms > 0).
  size_t within_budget = 0;

  /// Fraction of samples within the budget — the IDEBench
  /// %-of-ops-within-SLO metric.  1 when there is nothing to judge.
  double WithinFraction() const;

  /// The tail latency budget verdicts use: p99 when defined, else p50;
  /// -1 when neither is defined.
  double TailMs() const;

  /// False iff a budget is configured and TailMs() exceeds it.
  bool TailWithinBudget() const;
};

/// \brief Accumulates latency samples (seconds) and summarizes them in ms.
/// Not thread-safe; record per worker and Merge() at the end, the way the
/// load tools already aggregate per-user stats.
class LatencyRecorder {
 public:
  void Record(double seconds) { seconds_.push_back(seconds); }
  void Merge(const LatencyRecorder& other);

  size_t count() const { return seconds_.size(); }
  bool empty() const { return seconds_.empty(); }
  const std::vector<double>& seconds() const { return seconds_; }

  /// Summary against \p budget_ms (0 = no budget); sorts a copy.
  LatencySummary Summarize(double budget_ms = 0.0) const;

 private:
  std::vector<double> seconds_;
};

}  // namespace vs

#endif  // VS_COMMON_LATENCY_H_
