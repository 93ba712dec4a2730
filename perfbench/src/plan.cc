#include "plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>

namespace pb {

namespace {

constexpr double kGrid = 1e-4;
constexpr int kNumPresets = 11;  // Table 2
constexpr size_t kRoutedPool = 8;

/// Draws distinct grid start points for ranges of \p width.
class StartDrawer {
 public:
  explicit StartDrawer(std::mt19937_64* rng) : rng_(rng) {}
  double Draw(double width) {
    const int64_t slots =
        static_cast<int64_t>(std::floor((1.0 - width) / kGrid));
    std::uniform_int_distribution<int64_t> pick(0, slots - 1);
    int64_t slot;
    do {
      slot = pick(*rng_);
    } while (!used_[width].insert(slot).second);
    return static_cast<double>(slot) * kGrid;
  }

 private:
  std::mt19937_64* rng_;
  std::map<double, std::set<int64_t>> used_;
};

}  // namespace

bool FindWorkload(const std::string& name, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "cold_create") {
    c.kind = Kind::kColdCreate;
    c.iterations = 8;
    c.max_sessions = 360;
    c.warm_sessions = 3;
  } else if (name == "alpha_refine") {
    c.kind = Kind::kAlphaRefine;
    c.iterations = 0;
    c.create_deadline_ms = 25.0;
    c.alpha = 0.1;
    c.max_sessions = 96;
    c.warm_sessions = 2;
  } else if (name == "routed_label_loop") {
    c.kind = Kind::kRoutedLabelLoop;
    c.lanes = 2;
    c.iterations = 50;
    c.topk_every = 10;
    c.max_sessions = 4000;
    c.warm_sessions = 2;
  } else {
    return false;
  }
  *out = c;
  return true;
}

std::string RangeFilter(double start, double width) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "d0 >= %.4f AND d0 < %.4f", start,
                start + width);
  return buffer;
}

const std::vector<double>& ColdWidths() {
  static const std::vector<double> widths = {0.01, 0.10, 0.01, 0.50, 0.10};
  return widths;
}

Plan MakePlan(const WorkloadConfig& config, uint64_t seed) {
  Plan plan;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  std::uniform_int_distribution<int> preset(0, kNumPresets - 1);
  StartDrawer starts(&rng);
  switch (config.kind) {
    case Kind::kColdCreate:
    case Kind::kAlphaRefine: {
      const std::vector<double> widths =
          config.kind == Kind::kColdCreate ? ColdWidths()
                                           : std::vector<double>{0.10};
      for (size_t i = 0; i < config.warm_sessions; ++i) {
        const double w = widths[i % widths.size()];
        plan.warm_filters.push_back(RangeFilter(starts.Draw(w), w));
      }
      for (size_t i = 0; i < config.max_sessions; ++i) {
        const double w = widths[i % widths.size()];
        plan.filters.push_back(RangeFilter(starts.Draw(w), w));
        plan.sessions.push_back({i, preset(rng)});
      }
      break;
    }
    case Kind::kRoutedLabelLoop: {
      // A fixed pool (independent of the seed), popular by zipf(1).
      static const double kPoolWidths[kRoutedPool] = {0.10, 0.01, 0.50, 0.10,
                                                      0.01, 0.10, 0.50, 0.01};
      double weight_sum = 0.0;
      std::vector<double> cumulative;
      for (size_t f = 0; f < kRoutedPool; ++f) {
        plan.filters.push_back(
            RangeFilter(0.05 * static_cast<double>(f), kPoolWidths[f]));
        weight_sum += 1.0 / static_cast<double>(f + 1);
        cumulative.push_back(weight_sum);
      }
      plan.warm_filters = plan.filters;
      std::uniform_real_distribution<double> u(0.0, weight_sum);
      for (size_t i = 0; i < config.max_sessions; ++i) {
        const double x = u(rng);
        const size_t f = static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), x) -
            cumulative.begin());
        plan.sessions.push_back({std::min(f, kRoutedPool - 1), preset(rng)});
      }
      break;
    }
  }
  return plan;
}

}  // namespace pb
