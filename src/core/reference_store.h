#ifndef VS_CORE_REFERENCE_STORE_H_
#define VS_CORE_REFERENCE_STORE_H_

/// \file reference_store.h
/// \brief The filter-independent half of offline initialization, computed
/// once per table.
///
/// Every view's utility features compare a target (its group-by over D_Q)
/// with a reference (the same group-by over all of D, or over the α-sample
/// of D for rough rows).  The reference does not depend on the query, so a
/// ReferenceStore bound to one table and its view list computes it once
/// per scan group and hands it to every FeatureMatrix::Build and
/// RefineRows over that table; a cold build then scans only D_Q.
///
///  * **Keys**: (scan group, sample identity, executor path).  A scan
///    group is one (dimension, bin count) group of views() under shared
///    scans, or one view in the per-view cost model.  The sample identity
///    is the full table or an α-sample (rate, seed); the executor path is
///    the typed kernel or the scalar oracle.  Exact values are bit-identical
///    to a store-less scan: the fill is the same ExecuteBatch, and batch
///    results are per-spec identical to Execute.
///  * **Single flight**: the first caller of a key fills it; concurrent
///    callers wait for that fill and share it.  No store lock is held
///    during a fill.  A failed fill is forgotten, so the next caller
///    retries.
///  * **α-samples**: the row list of each (rate, seed) is drawn once.
///  * **Executors**: one GroupByExecutor per path, prewarmed once on first
///    use (std::call_once over the full-table ranges of every numeric
///    dimension) and read-only after, so builds share it for their target
///    scans too.
///  * **Threads**: the store starts none; entries live until the store
///    does (it only grows, by at most one entry per key).
///
/// Counters `reference_store.fills` and `reference_store.hits` in the
/// default MetricsRegistry count group fills and reuses.  Fault point:
/// `reference_store.fill_fail` fails a group fill before it scans.
///
/// The table is borrowed and must outlive the store.  All methods are
/// thread-safe.

#include <compare>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "core/view.h"
#include "data/groupby.h"
#include "data/table.h"

namespace vs::core {

/// \brief Per-table store of reference group-by results and α-samples.
class ReferenceStore {
 public:
  /// What a reference aggregates: the full table (rate >= 1) or the
  /// Bernoulli α-sample drawn with (rate, seed).
  struct SampleId {
    double rate = 1.0;
    uint64_t seed = 0;
    auto operator<=>(const SampleId&) const = default;
  };

  /// The reference results of one filled scan group, in member order.
  /// Members share the group's bins, so the labels are kept once.
  class GroupReferences {
   public:
    /// Member \p k's result, bin labels included.
    data::GroupByResult Get(size_t k) const;

   private:
    friend class ReferenceStore;
    size_t ApproxBytes() const;
    std::vector<std::string> bin_labels;
    std::vector<data::GroupByResult> results;  ///< bin_labels moved out
  };

  /// A view's place in the scan groups.
  struct Slot {
    size_t group = 0;   ///< index into groups()
    size_t member = 0;  ///< position within that group
  };

  /// Point-in-time counts for this store.
  struct Stats {
    uint64_t fills = 0;          ///< group fills (one scan each)
    uint64_t samples_drawn = 0;  ///< α-sample row lists drawn
  };

  /// Binds to \p table (borrowed) and its view list.  Cheap: nothing is
  /// scanned until the first lookup.
  ReferenceStore(const data::Table* table, std::vector<ViewSpec> views);

  ReferenceStore(const ReferenceStore&) = delete;
  ReferenceStore& operator=(const ReferenceStore&) = delete;

  const data::Table& table() const { return *table_; }
  const std::vector<ViewSpec>& views() const { return views_; }

  /// Scan groups over views(): with \p shared_scan one per (dimension, bin
  /// count) in first-appearance order, otherwise one per view.
  const std::vector<std::vector<size_t>>& groups(bool shared_scan) const {
    return shared_scan ? shared_groups_ : single_groups_;
  }

  /// Where view \p view sits in groups(\p shared_scan).
  Slot SlotOf(size_t view, bool shared_scan) const {
    return shared_scan ? shared_slots_[view] : Slot{view, 0};
  }

  /// The executor for \p use_kernel's path, prewarmed on first call.
  vs::Result<const data::GroupByExecutor*> Executor(bool use_kernel);

  /// The sorted α-sample row list of (\p rate, \p seed), drawn once.
  vs::Result<std::shared_ptr<const data::SelectionVector>> Sample(
      double rate, uint64_t seed);

  /// Reference results of groups(\p shared_scan)[\p group] over
  /// \p sample, on \p use_kernel's path; filled on first use.
  vs::Result<std::shared_ptr<const GroupReferences>> References(
      size_t group, bool shared_scan, SampleId sample, bool use_kernel);

  /// Heap bytes of the filled groups and drawn samples.
  size_t ApproxBytes() const;

  Stats stats() const;

 private:
  /// Single-flight map: the first caller of a key runs the fill outside
  /// the lock, concurrent callers wait for it, and a failed fill is
  /// erased so a later caller retries.
  template <typename Key, typename Value>
  class OnceMap {
   public:
    /// *\p filled tells whether this call ran \p fill.
    template <typename Fill>
    vs::Result<std::shared_ptr<const Value>> GetOrFill(const Key& key,
                                                       Fill&& fill,
                                                       bool* filled);
    /// Calls \p fn on every filled value.
    template <typename Fn>
    void ForEach(Fn&& fn) const;

   private:
    struct Slot {
      bool done = false;
      std::shared_ptr<const Value> value;  ///< null until filled
    };
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<Key, std::shared_ptr<Slot>> slots_;
  };

  /// (group, shared_scan, sample, use_kernel).
  using RefKey = std::tuple<size_t, bool, SampleId, bool>;

  struct PathExecutor {
    explicit PathExecutor(const data::Table* table, bool use_kernel);
    data::GroupByExecutor executor;
    std::once_flag prewarm_once;
    vs::Status prewarm_status = vs::Status::OK();
  };

  const data::Table* table_;
  const std::vector<ViewSpec> views_;
  std::vector<std::vector<size_t>> shared_groups_;
  std::vector<std::vector<size_t>> single_groups_;
  std::vector<Slot> shared_slots_;
  PathExecutor kernel_;
  PathExecutor scalar_;
  OnceMap<std::pair<double, uint64_t>, data::SelectionVector> samples_;
  OnceMap<RefKey, GroupReferences> references_;
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace vs::core

#endif  // VS_CORE_REFERENCE_STORE_H_
