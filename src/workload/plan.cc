#include "workload/plan.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"

namespace vs::workload {

namespace {

/// Independent per-purpose generator streams derived from the spec seed:
/// session i's script never depends on how many draws session i-1 made.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  SplitMix64 outer(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  SplitMix64 inner(outer.Next() ^
                   (0xbf58476d1ce4e5b9ULL * (index + 1)));
  return inner.Next();
}

constexpr uint64_t kStreamArrival = 1;
constexpr uint64_t kStreamSession = 2;

/// Cumulative zipf weights over the filter pool.
std::vector<double> FilterCdf(const PopularitySpec& popularity) {
  std::vector<double> cdf(static_cast<size_t>(popularity.filters));
  double total = 0.0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    total +=
        1.0 / std::pow(static_cast<double>(i + 1), popularity.zipf_s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int SampleFilter(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.NextDouble();
  const size_t index = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return static_cast<int>(std::min(index, cdf.size() - 1));
}

/// The overlapping range pool: each filter covers `width` of the domain
/// and consecutive filters shift by width * (1 - overlap), wrapping — so
/// overlap 0 tiles the domain with disjoint ranges and overlap 1
/// degenerates to one shared query (the cache-friendliest extreme).
std::vector<std::string> BuildFilters(const PopularitySpec& popularity) {
  const double span = popularity.hi - popularity.lo;
  const double width = popularity.width * span;
  const double stride = width * (1.0 - popularity.overlap);
  const double wrap = std::max(span - width, 1e-9);
  std::vector<std::string> filters;
  filters.reserve(static_cast<size_t>(popularity.filters));
  for (int i = 0; i < popularity.filters; ++i) {
    const double offset =
        std::fmod(static_cast<double>(i) * stride, wrap);
    const double lo = popularity.lo + offset;
    const double hi = std::min(lo + width, popularity.hi);
    filters.push_back(vs::StrFormat("%s >= %.9g AND %s < %.9g",
                                    popularity.column.c_str(), lo,
                                    popularity.column.c_str(), hi));
  }
  return filters;
}

double ThinkSeconds(const ThinkTimeSpec& think, Rng& rng) {
  if (think.median_ms <= 0.0) return 0.0;
  const double ms = std::min(
      think.cap_ms, think.median_ms * std::exp(think.sigma *
                                               rng.NextGaussian()));
  return ms * 1e-3;
}

/// Scripts one session: step count, op kinds (label masked until a next
/// has fetched something), think pauses, and requery filters, all from
/// the session's own generator.
SessionPlan ScriptSession(const WorkloadSpec& spec, uint64_t seed,
                          uint64_t index,
                          const std::vector<double>& filter_cdf) {
  SessionPlan session;
  session.index = index;
  Rng rng(DeriveSeed(seed, kStreamSession, index));
  session.filter_index = SampleFilter(filter_cdf, rng);

  const int steps =
      spec.session.min_steps +
      static_cast<int>(rng.NextBounded(static_cast<uint64_t>(
          spec.session.max_steps - spec.session.min_steps + 1)));
  const std::vector<double> weights = {spec.mix.next, spec.mix.label,
                                       spec.mix.topk, spec.mix.requery};
  session.ops.reserve(static_cast<size_t>(steps));
  int fetched = 0;  ///< views fetched and not yet labeled (model)
  for (int step = 0; step < steps; ++step) {
    PlannedOp op;
    op.think_before_seconds = ThinkSeconds(spec.think_time, rng);
    switch (rng.NextDiscrete(weights)) {
      case 0:
        op.kind = OpKind::kNext;
        break;
      case 1:
        // A label must follow a fetch; when nothing is pending the user
        // would be clicking on an empty screen, so the step becomes the
        // fetch instead (deterministic substitution).
        op.kind = fetched > 0 ? OpKind::kLabel : OpKind::kNext;
        break;
      case 2:
        op.kind = OpKind::kTopk;
        break;
      default:
        op.kind = OpKind::kRequery;
        op.filter_index = SampleFilter(filter_cdf, rng);
        break;
    }
    if (op.kind == OpKind::kNext) {
      ++fetched;
    } else if (op.kind == OpKind::kLabel) {
      --fetched;
    } else if (op.kind == OpKind::kRequery) {
      fetched = 0;  // the new session starts with nothing fetched
    }
    session.ops.push_back(op);
  }
  return session;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNext:
      return "next";
    case OpKind::kLabel:
      return "label";
    case OpKind::kTopk:
      return "topk";
    case OpKind::kRequery:
      return "requery";
  }
  return "unknown";
}

vs::Result<WorkloadPlan> CompilePlan(const WorkloadSpec& spec,
                                     int64_t seed_override) {
  WorkloadPlan plan;
  plan.spec = spec;
  if (seed_override >= 0) {
    plan.spec.seed = static_cast<uint64_t>(seed_override);
  }
  const uint64_t seed = plan.spec.seed;
  plan.filters = BuildFilters(plan.spec.popularity);
  const std::vector<double> filter_cdf = FilterCdf(plan.spec.popularity);

  if (plan.spec.arrival.mode == ArrivalMode::kOpen) {
    // Poisson arrivals: exponential gaps at rate_per_sec until the run
    // duration is covered.  The gap stream is independent of the session
    // scripts, so changing the mix never shifts arrival times.
    Rng arrivals(DeriveSeed(seed, kStreamArrival, 0));
    double at = 0.0;
    uint64_t index = 0;
    while (true) {
      at += arrivals.NextExponential(plan.spec.arrival.rate_per_sec);
      if (at >= plan.spec.duration_seconds) break;
      if (index >= 1'000'000) {
        return vs::Status::InvalidArgument(
            "open-loop plan exceeds 1e6 sessions");
      }
      SessionPlan session =
          ScriptSession(plan.spec, seed, index, filter_cdf);
      session.arrival_seconds = at;
      session.lane = static_cast<int>(
          index % static_cast<uint64_t>(plan.spec.arrival.max_concurrent));
      plan.sessions.push_back(std::move(session));
      ++index;
    }
  } else {
    // Closed-loop: each lane gets a deterministic stack of scripts; the
    // runner cycles a lane's scripts until the duration expires, so the
    // count here only needs to cover the fastest plausible lane.
    const int lanes = plan.spec.arrival.users;
    const double think_floor =
        std::max(plan.spec.think_time.median_ms * 1e-3, 0.01);
    const double est_session_seconds =
        think_floor * static_cast<double>(plan.spec.session.min_steps);
    const uint64_t per_lane = std::clamp<uint64_t>(
        static_cast<uint64_t>(
            std::ceil(plan.spec.duration_seconds / est_session_seconds)),
        4, 4096);
    uint64_t index = 0;
    for (int lane = 0; lane < lanes; ++lane) {
      for (uint64_t s = 0; s < per_lane; ++s) {
        SessionPlan session =
            ScriptSession(plan.spec, seed, index, filter_cdf);
        session.lane = lane;
        plan.sessions.push_back(std::move(session));
        ++index;
      }
    }
  }

  for (const SessionPlan& session : plan.sessions) {
    plan.total_ops += session.ops.size();
  }
  return plan;
}

std::string FormatLedger(const WorkloadPlan& plan) {
  std::string out = vs::StrFormat(
      "workload %s seed %llu sessions %zu ops %llu\n",
      plan.spec.name.c_str(),
      static_cast<unsigned long long>(plan.spec.seed),
      plan.sessions.size(),
      static_cast<unsigned long long>(plan.total_ops));
  for (const SessionPlan& session : plan.sessions) {
    out += vs::StrFormat(
        "session %llu lane %d arrival %.6f filter %d \"%s\"\n",
        static_cast<unsigned long long>(session.index), session.lane,
        session.arrival_seconds, session.filter_index,
        plan.filters[static_cast<size_t>(session.filter_index)].c_str());
    for (const PlannedOp& op : session.ops) {
      if (op.kind == OpKind::kRequery) {
        out += vs::StrFormat("  op %s think %.6f filter %d\n",
                             OpKindName(op.kind), op.think_before_seconds,
                             op.filter_index);
      } else {
        out += vs::StrFormat("  op %s think %.6f\n", OpKindName(op.kind),
                             op.think_before_seconds);
      }
    }
  }
  return out;
}

uint64_t LedgerDigest(const std::string& ledger) {
  return Fnv1a64(ledger.data(), ledger.size(), kFnv1a64LegacySeed);
}

}  // namespace vs::workload
