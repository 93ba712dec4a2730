#ifndef PERFBENCH_PLAN_H_
#define PERFBENCH_PLAN_H_
/// \file plan.h
/// \brief The three workloads and their seeded session plans.
///
/// A plan is a list of sessions (filter + Table 2 u* preset) drawn from
/// the seed.  Filters are `d0` range predicates on start points of a
/// 1e-4 grid, so two distinct filters never select the same rows.

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

enum class Kind { kColdCreate, kAlphaRefine, kRoutedLabelLoop };

struct WorkloadConfig {
  Kind kind = Kind::kColdCreate;
  std::string name;
  int lanes = 1;
  /// next+label pairs per session; 0 = until the answers are exact.
  int iterations = 8;
  /// topk after every this many labels (0 = only at the end).
  int topk_every = 0;
  /// X-Deadline-Ms on creates (0 = none).
  double create_deadline_ms = 0.0;
  /// Server `--degraded-alpha` (1.0 = the server default is kept).
  double alpha = 1.0;
  /// Planned sessions; a run ends early if it uses them all up.
  size_t max_sessions = 0;
  /// Warm-up sessions before the timed phase (direct to a shard).
  size_t warm_sessions = 0;
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadConfig* out);

struct SessionPlan {
  size_t filter = 0;  ///< index into Plan::filters
  int ustar = 0;      ///< index into core::Table2Presets()
};

struct Plan {
  std::vector<std::string> filters;       ///< every distinct filter used
  std::vector<SessionPlan> sessions;      ///< timed sessions, in order
  std::vector<std::string> warm_filters;  ///< filters of warm-up sessions
};

/// The filter `d0 >= start AND d0 < start + width`.
std::string RangeFilter(double start, double width);

/// Widths of cold creates, cycled in this order (fixed proportions).
const std::vector<double>& ColdWidths();

Plan MakePlan(const WorkloadConfig& config, uint64_t seed);

}  // namespace pb

#endif  // PERFBENCH_PLAN_H_
