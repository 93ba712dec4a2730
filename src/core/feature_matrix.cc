#include "core/feature_matrix.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vs::core {

namespace {

/// Intersection of two sorted selection vectors.
data::SelectionVector Intersect(const data::SelectionVector& a,
                                const data::SelectionVector& b) {
  data::SelectionVector out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Cached instrument handles for the build/refine hot paths.
struct BuildMetrics {
  obs::Histogram* build_seconds;
  obs::Histogram* view_seconds;
  obs::Histogram* feature_seconds;
  obs::Counter* builds_total;
  obs::Counter* views_built;
  obs::Counter* rough_rows;
  obs::Counter* rows_refined;
  obs::Counter* cow_detaches;

  static const BuildMetrics& Get() {
    static const BuildMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return BuildMetrics{
          r.GetHistogram("feature_matrix.build_seconds",
                         obs::DefaultLatencyBuckets(),
                         "full feature-matrix build time"),
          r.GetHistogram("feature_matrix.view_seconds",
                         obs::DefaultLatencyBuckets(),
                         "per-view materialization + feature time "
                         "(scan cost amortized over shared-scan groups)"),
          r.GetHistogram("feature_matrix.feature_seconds",
                         obs::DefaultLatencyBuckets(),
                         "per-view utility-feature evaluation time"),
          r.GetCounter("feature_matrix.builds_total",
                       "feature-matrix builds"),
          r.GetCounter("feature_matrix.views_built",
                       "view rows materialized by builds"),
          r.GetCounter("feature_matrix.rough_rows",
                       "view rows built on the sample (rough)"),
          r.GetCounter("feature_matrix.rows_refined",
                       "rough rows recomputed on the full data"),
          r.GetCounter("feature_matrix.cow_detaches",
                       "refinements that deep-copied a shared state"),
      };
    }();
    return m;
  }
};

}  // namespace

vs::Result<FeatureMatrix> FeatureMatrix::Build(
    const data::Table* table, std::vector<ViewSpec> views,
    data::SelectionVector query_selection,
    const UtilityFeatureRegistry* registry,
    const FeatureMatrixOptions& options,
    std::shared_ptr<ReferenceStore> store) {
  if (table == nullptr || registry == nullptr) {
    return vs::Status::InvalidArgument("table and registry are required");
  }
  if (views.empty()) {
    return vs::Status::InvalidArgument("view list must be non-empty");
  }
  if (registry->size() == 0) {
    return vs::Status::InvalidArgument("registry has no features");
  }
  if (options.sample_rate <= 0.0 || options.sample_rate > 1.0) {
    return vs::Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  for (uint32_t r : query_selection) {
    if (r >= table->num_rows()) {
      return vs::Status::OutOfRange("query selection row out of range");
    }
  }
  if (store == nullptr) {
    store = std::make_shared<ReferenceStore>(table, std::move(views));
  } else if (&store->table() != table || store->views() != views) {
    return vs::Status::InvalidArgument(
        "reference store is bound to another table or view list");
  }

  obs::Span build_span("core.build");
  const BuildMetrics& metrics = BuildMetrics::Get();
  const bool observe = obs::MetricsRegistry::Default().enabled();
  Stopwatch build_clock;

  FeatureMatrix fm;
  fm.table_ = table;
  fm.registry_ = registry;
  auto imm = std::make_shared<Immutable>();
  imm->store = std::move(store);
  imm->query_selection = std::move(query_selection);
  ReferenceStore& refs = *imm->store;
  const size_t num_views = refs.views().size();
  auto state = std::make_shared<State>();
  state->raw = ml::Matrix(num_views, registry->size());
  state->exact.assign(num_views, false);

  const bool exact_build = options.sample_rate >= 1.0;
  // The store's executor is prewarmed, hence read-only: targets scan on
  // it too (from any worker), over the same bins as the references.
  VS_ASSIGN_OR_RETURN(const data::GroupByExecutor* executor,
                      refs.Executor(options.use_kernels));

  data::SelectionVector target_sample;
  ReferenceStore::SampleId ref_sample;  // the full table
  const data::SelectionVector* target_sel = &imm->query_selection;
  if (!exact_build) {
    VS_ASSIGN_OR_RETURN(std::shared_ptr<const data::SelectionVector> sample,
                        refs.Sample(options.sample_rate, options.seed));
    target_sample = Intersect(imm->query_selection, *sample);
    // When the sample misses the (small) query subset entirely, rough
    // features would be vacuous, so both sides keep the full selections.
    if (!target_sample.empty() && !sample->empty()) {
      ref_sample = {options.sample_rate, options.seed};
      target_sel = &target_sample;
    }
  }

  fm.shared_scan_ = options.shared_scan;
  fm.use_kernels_ = options.use_kernels;

  // Shared-scan batching (SeeDB-style): all views over one (dimension,
  // bin count) share a single target pass and a single reference entry.
  // Without shared_scan every view is its own group (the per-view cost
  // model of the paper's prototype).
  const std::vector<std::vector<size_t>>& groups =
      refs.groups(options.shared_scan);

  auto compute_group = [&](size_t g) -> vs::Status {
    const std::vector<size_t>& members = groups[g];
    Stopwatch group_clock;
    std::vector<data::GroupBySpec> specs;
    specs.reserve(members.size());
    for (size_t i : members) {
      specs.push_back(refs.views()[i].ToGroupBySpec());
    }
    VS_ASSIGN_OR_RETURN(std::vector<data::GroupByResult> targets,
                        executor->ExecuteBatch(specs, target_sel));
    VS_ASSIGN_OR_RETURN(
        std::shared_ptr<const ReferenceStore::GroupReferences> references,
        refs.References(g, options.shared_scan, ref_sample,
                        options.use_kernels));
    double feature_seconds = 0.0;
    for (size_t k = 0; k < members.size(); ++k) {
      ViewMaterialization mat;
      mat.target = std::move(targets[k]);
      mat.reference = references->Get(k);
      VS_ASSIGN_OR_RETURN(mat.target_dist,
                          stats::Normalize(mat.target.values));
      VS_ASSIGN_OR_RETURN(mat.reference_dist,
                          stats::Normalize(mat.reference.values));
      Stopwatch feature_clock;
      VS_ASSIGN_OR_RETURN(ml::Vector features, registry->ComputeAll(mat));
      if (observe) feature_seconds = feature_clock.ElapsedSeconds();
      const size_t row = members[k];
      for (size_t j = 0; j < features.size(); ++j) {
        state->raw(row, j) = features[j];
      }
      if (observe) metrics.feature_seconds->Observe(feature_seconds);
    }
    if (observe) {
      // Shared scans make the per-view cost the group cost amortized over
      // its members; one observation per view keeps the histogram count
      // meaningful as "views built".
      const double per_view =
          group_clock.ElapsedSeconds() / static_cast<double>(members.size());
      for (size_t k = 0; k < members.size(); ++k) {
        metrics.view_seconds->Observe(per_view);
      }
    }
    return vs::Status::OK();
  };

  if (options.num_threads == 0) {
    for (size_t g = 0; g < groups.size(); ++g) {
      VS_RETURN_IF_ERROR(compute_group(g));
    }
  } else {
    // Groups are independent and write disjoint rows.
    std::vector<vs::Status> group_status(groups.size());
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(0, groups.size(), [&](size_t g) {
      group_status[g] = compute_group(g);
    });
    for (const vs::Status& s : group_status) {
      VS_RETURN_IF_ERROR(s);
    }
  }
  if (exact_build) {
    state->exact.assign(num_views, true);
    state->num_exact = num_views;
  }
  state->normalized_dirty = true;
  fm.imm_ = std::move(imm);
  fm.state_ = std::move(state);
  metrics.builds_total->Increment();
  metrics.views_built->Increment(fm.num_views());
  if (!exact_build) metrics.rough_rows->Increment(fm.num_views());
  metrics.build_seconds->Observe(build_clock.ElapsedSeconds());
  return fm;
}

const ml::Matrix& FeatureMatrix::normalized() const {
  State& state = *state_;
  if (state.normalized_dirty) {
    state.normalized = state.raw;
    const size_t rows = state.raw.rows();
    const size_t cols = state.raw.cols();
    for (size_t j = 0; j < cols; ++j) {
      double lo = state.raw(0, j);
      double hi = state.raw(0, j);
      for (size_t i = 1; i < rows; ++i) {
        lo = std::min(lo, state.raw(i, j));
        hi = std::max(hi, state.raw(i, j));
      }
      const double span = hi - lo;
      for (size_t i = 0; i < rows; ++i) {
        state.normalized(i, j) =
            span > 0.0 ? (state.raw(i, j) - lo) / span : 0.0;
      }
    }
    state.normalized_dirty = false;
  }
  return state.normalized;
}

ml::Vector FeatureMatrix::NormalizedRow(size_t view_index) const {
  return normalized().Row(view_index);
}

void FeatureMatrix::DetachStateIfShared() {
  if (state_.use_count() == 1) return;
  state_ = std::make_shared<State>(*state_);
  BuildMetrics::Get().cow_detaches->Increment();
}

vs::Status FeatureMatrix::RefineRow(size_t view_index) {
  return RefineRows({view_index});
}

vs::Status FeatureMatrix::RefineRows(
    const std::vector<size_t>& view_indices) {
  ReferenceStore& refs = *imm_->store;
  // Group the rough rows by scan group (dimension, bin count) so each
  // group's targets share one scan; in per-view mode (shared_scan =
  // false) each row is its own group.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t view_index : view_indices) {
    if (view_index >= num_views()) {
      return vs::Status::OutOfRange("view index out of range");
    }
    if (state_->exact[view_index]) continue;
    groups[refs.SlotOf(view_index, shared_scan_).group].push_back(
        view_index);
  }
  if (groups.empty()) return vs::Status::OK();

  // The write below must not be visible to other handles sharing this
  // state (one serving session's refinement must never leak into
  // another's, nor into the cache's canonical copy).
  DetachStateIfShared();
  State& state = *state_;

  obs::Span refine_span("core.refine_rows");
  VS_ASSIGN_OR_RETURN(const data::GroupByExecutor* executor,
                      refs.Executor(use_kernels_));
  for (const auto& [group, members] : groups) {
    std::vector<data::GroupBySpec> specs;
    specs.reserve(members.size());
    for (size_t i : members) specs.push_back(views()[i].ToGroupBySpec());
    VS_ASSIGN_OR_RETURN(std::vector<data::GroupByResult> targets,
                        executor->ExecuteBatch(specs, &imm_->query_selection));
    VS_ASSIGN_OR_RETURN(
        std::shared_ptr<const ReferenceStore::GroupReferences> references,
        refs.References(group, shared_scan_, ReferenceStore::SampleId{},
                        use_kernels_));
    for (size_t k = 0; k < members.size(); ++k) {
      const size_t row = members[k];
      ViewMaterialization mat;
      mat.target = std::move(targets[k]);
      mat.reference = references->Get(refs.SlotOf(row, shared_scan_).member);
      VS_ASSIGN_OR_RETURN(mat.target_dist,
                          stats::Normalize(mat.target.values));
      VS_ASSIGN_OR_RETURN(mat.reference_dist,
                          stats::Normalize(mat.reference.values));
      VS_ASSIGN_OR_RETURN(ml::Vector features, registry_->ComputeAll(mat));
      for (size_t j = 0; j < features.size(); ++j) {
        state.raw(row, j) = features[j];
      }
      state.exact[row] = true;
      ++state.num_exact;
      BuildMetrics::Get().rows_refined->Increment();
    }
  }
  state.normalized_dirty = true;
  return vs::Status::OK();
}

int64_t FeatureMatrix::RefineCostPerRow() const {
  // One refinement rescans the query subset (target); the full-data
  // reference comes from the store.
  return std::max<int64_t>(
      1, static_cast<int64_t>(imm_->query_selection.size()));
}

size_t FeatureMatrix::ApproxBytes() const {
  const size_t cells = state_->raw.rows() * state_->raw.cols();
  size_t bytes = 2 * cells * sizeof(double);       // raw + normalized
  bytes += state_->exact.size() / 8 + 1;           // exactness bitmap
  bytes += imm_->query_selection.size() * sizeof(uint32_t);
  for (const ViewSpec& view : views()) {
    bytes += sizeof(ViewSpec) + view.dimension.size() + view.measure.size();
  }
  return bytes;
}

}  // namespace vs::core
