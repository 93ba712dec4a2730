#include "testing/fault_injection.h"

#include <algorithm>
#include <thread>

#include "obs/metrics.h"

namespace vs::fault {

namespace internal {
std::atomic<FaultInjector*> g_active{nullptr};
}  // namespace internal

namespace {

/// Fault points currently inside FireFaultPoint.  Uninstalling waits for
/// this to drain, so no Fire() outlives the injector it saw.
std::atomic<uint64_t> g_firing{0};

/// Cached handles into the default registry (amortized registration).
struct FaultMetrics {
  obs::Counter* hits;
  obs::Counter* fires;

  static const FaultMetrics& Get() {
    static const FaultMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return FaultMetrics{
          r.GetCounter("fault.hits", "fault-point hits while injecting"),
          r.GetCounter("fault.fires", "faults actually injected"),
      };
    }();
    return m;
  }
};

/// FNV-1a over the point name: stable across platforms, unlike std::hash.
uint64_t HashPointName(std::string_view point) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : point) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// splitmix64 finalizer: turns (seed, point, hit) into uniform bits.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

bool FaultInjector::Decide(uint64_t seed, std::string_view point,
                           uint64_t hit_index, double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  uint64_t x = HashPointName(point);
  x ^= seed * 0x9E3779B97F4A7C15ULL;
  x = Mix(x ^ (hit_index * 0xD6E8FEB86659FD93ULL));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return u < probability;
}

FaultInjector::Point* FaultInjector::GetPoint(std::string_view point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) {
    it = points_.emplace(std::string(point), std::make_unique<Point>())
             .first;
  }
  return it->second.get();
}

void FaultInjector::SetProbability(const std::string& point,
                                   double probability) {
  Point* p = GetPoint(point);
  std::lock_guard<std::mutex> lock(mu_);
  p->probability = std::clamp(probability, 0.0, 1.0);
  p->schedule.clear();
  p->mode = Point::Mode::kProbability;
}

void FaultInjector::SetSchedule(const std::string& point,
                                std::vector<uint64_t> hits) {
  Point* p = GetPoint(point);
  std::sort(hits.begin(), hits.end());
  std::lock_guard<std::mutex> lock(mu_);
  p->schedule = std::move(hits);
  p->probability = 0.0;
  p->mode = Point::Mode::kSchedule;
}

void FaultInjector::Clear(const std::string& point) {
  Point* p = GetPoint(point);
  std::lock_guard<std::mutex> lock(mu_);
  p->mode = Point::Mode::kDisarmed;
  p->schedule.clear();
  p->probability = 0.0;
}

void FaultInjector::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, p] : points_) {
    p->mode = Point::Mode::kDisarmed;
    p->schedule.clear();
    p->probability = 0.0;
  }
}

bool FaultInjector::Fire(std::string_view point) {
  Point* p = GetPoint(point);
  // 1-based hit index, unique per hit even across racing threads.
  const uint64_t hit = p->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  Point::Mode mode;
  double probability;
  bool scheduled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    mode = p->mode;
    probability = p->probability;
    if (mode == Point::Mode::kSchedule) {
      scheduled = std::binary_search(p->schedule.begin(), p->schedule.end(),
                                     hit);
    }
  }
  FaultMetrics::Get().hits->Increment();
  bool fire = false;
  switch (mode) {
    case Point::Mode::kDisarmed:
      break;
    case Point::Mode::kProbability:
      fire = Decide(seed_, point, hit, probability);
      break;
    case Point::Mode::kSchedule:
      fire = scheduled;
      break;
  }
  if (fire) {
    p->fires.fetch_add(1, std::memory_order_relaxed);
    total_fires_.fetch_add(1, std::memory_order_relaxed);
    FaultMetrics::Get().fires->Increment();
  }
  return fire;
}

FaultInjector::PointStats FaultInjector::Stats(
    const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return {};
  return {it->second->hits.load(std::memory_order_relaxed),
          it->second->fires.load(std::memory_order_relaxed)};
}

std::vector<std::pair<std::string, FaultInjector::PointStats>>
FaultInjector::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, PointStats>> out;
  out.reserve(points_.size());
  for (const auto& [name, p] : points_) {
    out.emplace_back(name,
                     PointStats{p->hits.load(std::memory_order_relaxed),
                                p->fires.load(std::memory_order_relaxed)});
  }
  return out;  // map iteration is already name-sorted
}

void InstallFaultInjector(FaultInjector* injector) {
  // seq_cst on both sides (here and in FireFaultPoint) orders the store
  // of g_active against the reader's increment of g_firing: either the
  // reader's re-check sees the new value, or this drain loop sees the
  // reader's increment and waits for its Fire() to return.
  internal::g_active.store(injector, std::memory_order_seq_cst);
  if (injector != nullptr) return;
  while (g_firing.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

bool FireFaultPoint(std::string_view point) {
  g_firing.fetch_add(1, std::memory_order_seq_cst);
  FaultInjector* injector =
      internal::g_active.load(std::memory_order_seq_cst);
  const bool fire = injector != nullptr && injector->Fire(point);
  g_firing.fetch_sub(1, std::memory_order_release);
  return fire;
}

}  // namespace vs::fault
