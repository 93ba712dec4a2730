#include "core/reference_store.h"

#include <utility>

#include "common/random.h"
#include "data/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"

namespace vs::core {

namespace {

struct StoreMetrics {
  obs::Counter* fills;
  obs::Counter* hits;

  static const StoreMetrics& Get() {
    static const StoreMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return StoreMetrics{
          r.GetCounter("reference_store.fills",
                       "reference groups scanned into a reference store"),
          r.GetCounter("reference_store.hits",
                       "reference groups served from a reference store"),
      };
    }();
    return m;
  }
};

size_t LabelBytes(const std::vector<std::string>& labels) {
  size_t bytes = 0;
  for (const std::string& label : labels) {
    bytes += sizeof(std::string) + label.capacity();
  }
  return bytes;
}

}  // namespace

template <typename Key, typename Value>
template <typename Fill>
vs::Result<std::shared_ptr<const Value>>
ReferenceStore::OnceMap<Key, Value>::GetOrFill(const Key& key, Fill&& fill,
                                               bool* filled) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = slots_.find(key);
    if (it == slots_.end()) break;
    const std::shared_ptr<Slot> slot = it->second;
    cv_.wait(lock, [&slot] { return slot->done; });
    if (slot->value != nullptr) {
      *filled = false;
      return slot->value;
    }
    // That fill failed and its slot is gone: look again (another caller
    // may already be retrying, or this one becomes the filler).
  }
  auto slot = std::make_shared<Slot>();
  slots_.emplace(key, slot);
  lock.unlock();
  vs::Result<Value> result = fill();
  lock.lock();
  slot->done = true;
  if (result.ok()) {
    slot->value = std::make_shared<const Value>(std::move(*result));
  } else {
    slots_.erase(key);
  }
  cv_.notify_all();
  if (!result.ok()) return result.status();
  *filled = true;
  return slot->value;
}

template <typename Key, typename Value>
template <typename Fn>
void ReferenceStore::OnceMap<Key, Value>::ForEach(Fn&& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, slot] : slots_) {
    if (slot->value != nullptr) fn(*slot->value);
  }
}

data::GroupByResult ReferenceStore::GroupReferences::Get(size_t k) const {
  data::GroupByResult out = results[k];
  out.bin_labels = bin_labels;
  return out;
}

size_t ReferenceStore::GroupReferences::ApproxBytes() const {
  size_t bytes = LabelBytes(bin_labels);
  for (const data::GroupByResult& result : results) {
    bytes += sizeof(data::GroupByResult) +
             (result.values.size() + result.sums.size() +
              result.sumsqs.size()) *
                 sizeof(double) +
             result.counts.size() * sizeof(int64_t);
  }
  return bytes;
}

ReferenceStore::PathExecutor::PathExecutor(const data::Table* table,
                                           bool use_kernel)
    : executor(table, [use_kernel] {
        data::GroupByExecutorOptions options;
        options.use_kernel = use_kernel;
        return options;
      }()) {}

ReferenceStore::ReferenceStore(const data::Table* table,
                               std::vector<ViewSpec> views)
    : table_(table),
      views_(std::move(views)),
      kernel_(table, true),
      scalar_(table, false) {
  std::map<std::pair<std::string, int32_t>, size_t> group_of;
  shared_slots_.resize(views_.size());
  single_groups_.resize(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    single_groups_[i] = {i};
    const auto key = std::make_pair(views_[i].dimension, views_[i].num_bins);
    auto [it, inserted] = group_of.emplace(key, shared_groups_.size());
    if (inserted) shared_groups_.emplace_back();
    shared_slots_[i] = Slot{it->second, shared_groups_[it->second].size()};
    shared_groups_[it->second].push_back(i);
  }
}

vs::Result<const data::GroupByExecutor*> ReferenceStore::Executor(
    bool use_kernel) {
  PathExecutor& path = use_kernel ? kernel_ : scalar_;
  std::call_once(path.prewarm_once, [this, &path] {
    for (const ViewSpec& view : views_) {
      path.prewarm_status = path.executor.Prewarm(view.ToGroupBySpec());
      if (!path.prewarm_status.ok()) return;
    }
  });
  VS_RETURN_IF_ERROR(path.prewarm_status);
  return &path.executor;
}

vs::Result<std::shared_ptr<const data::SelectionVector>>
ReferenceStore::Sample(double rate, uint64_t seed) {
  bool drawn = false;
  auto sample = samples_.GetOrFill(
      {rate, seed},
      [this, rate, seed]() -> vs::Result<data::SelectionVector> {
        obs::Span span("reference_store.sample");
        vs::Rng rng(seed);
        return data::BernoulliSample(table_->num_rows(), rate, &rng);
      },
      &drawn);
  if (drawn) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.samples_drawn;
  }
  return sample;
}

vs::Result<std::shared_ptr<const ReferenceStore::GroupReferences>>
ReferenceStore::References(size_t group, bool shared_scan, SampleId sample,
                           bool use_kernel) {
  const std::vector<std::vector<size_t>>& all = groups(shared_scan);
  if (group >= all.size()) {
    return vs::Status::OutOfRange("reference group out of range");
  }
  if (sample.rate >= 1.0) sample = SampleId{};
  bool filled = false;
  auto refs = references_.GetOrFill(
      RefKey{group, shared_scan, sample, use_kernel},
      [&]() -> vs::Result<GroupReferences> {
        obs::Span span("reference_store.fill");
        if (VS_FAULT("reference_store.fill_fail")) {
          return vs::Status::Internal("injected reference fill failure");
        }
        VS_ASSIGN_OR_RETURN(const data::GroupByExecutor* executor,
                            Executor(use_kernel));
        std::shared_ptr<const data::SelectionVector> rows;
        if (sample.rate < 1.0) {
          VS_ASSIGN_OR_RETURN(rows, Sample(sample.rate, sample.seed));
        }
        std::vector<data::GroupBySpec> specs;
        for (size_t view : all[group]) {
          specs.push_back(views_[view].ToGroupBySpec());
        }
        GroupReferences out;
        VS_ASSIGN_OR_RETURN(out.results,
                            executor->ExecuteBatch(specs, rows.get()));
        out.bin_labels = std::move(out.results[0].bin_labels);
        for (data::GroupByResult& result : out.results) {
          result.bin_labels.clear();
          result.bin_labels.shrink_to_fit();
        }
        return out;
      },
      &filled);
  if (refs.ok()) {
    const StoreMetrics& m = StoreMetrics::Get();
    (filled ? m.fills : m.hits)->Increment();
    if (filled) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.fills;
    }
  }
  return refs;
}

size_t ReferenceStore::ApproxBytes() const {
  size_t bytes = 0;
  samples_.ForEach([&bytes](const data::SelectionVector& rows) {
    bytes += rows.capacity() * sizeof(uint32_t);
  });
  references_.ForEach([&bytes](const GroupReferences& refs) {
    bytes += refs.ApproxBytes();
  });
  return bytes;
}

ReferenceStore::Stats ReferenceStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace vs::core
