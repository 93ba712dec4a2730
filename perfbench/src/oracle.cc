#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/ideal_utility.h"
#include "core/seeker.h"
#include "core/simulated_user.h"
#include "data/groupby.h"
#include "data/io.h"
#include "data/predicate.h"
#include "data/query.h"

namespace pb {

vs::Result<std::unique_ptr<Oracle>> Oracle::Load(const std::string& path) {
  auto oracle = std::unique_ptr<Oracle>(new Oracle());
  VS_ASSIGN_OR_RETURN(data::Table table, data::ReadTableFile(path));
  oracle->table_ = std::make_unique<data::Table>(std::move(table));
  VS_ASSIGN_OR_RETURN(oracle->views_,
                      core::EnumerateViews(*oracle->table_,
                                           core::ViewEnumerationOptions{}));
  return oracle;
}

vs::Status Oracle::BuildExact(const std::vector<std::string>& filters,
                              size_t threads) {
  exact_.clear();
  exact_.resize(filters.size());
  scores_.assign(filters.size(), {});
  const auto presets = core::Table2Presets();
  std::atomic<size_t> next{0};
  std::vector<vs::Status> failures(filters.size(), vs::Status::OK());
  auto worker = [&]() {
    for (size_t f = next++; f < filters.size(); f = next++) {
      auto run = [&]() -> vs::Status {
        VS_ASSIGN_OR_RETURN(data::PredicatePtr predicate,
                            data::ParseFilter(filters[f]));
        VS_ASSIGN_OR_RETURN(data::SelectionVector selection,
                            data::SelectRows(*table_, predicate.get()));
        core::FeatureMatrixOptions options;
        options.use_kernels = false;
        options.num_threads = 1;
        VS_ASSIGN_OR_RETURN(
            core::FeatureMatrix matrix,
            core::FeatureMatrix::Build(table_.get(), views_,
                                       std::move(selection), &registry_,
                                       options));
        exact_[f] = std::make_unique<core::FeatureMatrix>(std::move(matrix));
        for (const auto& ideal : presets) {
          VS_ASSIGN_OR_RETURN(
              core::SimulatedUser user,
              core::SimulatedUser::Make(&exact_[f]->normalized(), ideal));
          scores_[f].push_back(user.true_scores());
        }
        return vs::Status::OK();
      };
      failures[f] = run();
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  for (auto& thread : pool) thread.join();
  for (const vs::Status& status : failures) {
    if (!status.ok()) return status;
  }
  return vs::Status::OK();
}

double Oracle::Label(size_t filter, int ustar, size_t view) const {
  return scores_[filter][static_cast<size_t>(ustar)][view];
}

std::vector<size_t> Oracle::TrueTopK(size_t filter, int ustar) const {
  const std::vector<double>& scores =
      scores_[filter][static_cast<size_t>(ustar)];
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  order.resize(std::min<size_t>(kTopK, order.size()));
  return order;
}

vs::Result<Replay> Oracle::ReplaySession(
    size_t filter, const std::vector<std::pair<size_t, double>>& labels) const {
  core::ViewSeekerOptions options;
  options.k = kTopK;
  VS_ASSIGN_OR_RETURN(core::ViewSeeker seeker,
                      core::ViewSeeker::Make(exact_[filter].get(), options));
  for (const auto& [view, label] : labels) {
    VS_RETURN_IF_ERROR(seeker.SubmitLabel(view, label));
  }
  Replay replay;
  VS_ASSIGN_OR_RETURN(replay.views, seeker.RecommendTopK());
  VS_ASSIGN_OR_RETURN(std::vector<double> scores, seeker.CurrentScores());
  for (size_t v : replay.views) replay.scores.push_back(scores[v]);
  return replay;
}

vs::Result<size_t> Oracle::CheckReferenceCells() const {
  // One COUNT and one SUM view per dimension: the whole-table group-by
  // every reference side of that dimension reuses.
  std::vector<data::GroupBySpec> specs;
  for (const core::ViewSpec& view : views_) {
    const bool wanted = view.func == data::AggregateFunction::kCount ||
                        view.func == data::AggregateFunction::kSum;
    const bool seen = std::any_of(specs.begin(), specs.end(), [&](auto& s) {
      return s.dimension == view.dimension && s.func == view.func &&
             s.num_bins == view.num_bins;
    });
    if (wanted && !seen) specs.push_back(view.ToGroupBySpec());
  }
  data::GroupByExecutor executor(table_.get());
  size_t cells = 0;
  for (const data::GroupBySpec& spec : specs) {
    VS_ASSIGN_OR_RETURN(data::GroupByResult result,
                        executor.Execute(spec, nullptr));
    VS_ASSIGN_OR_RETURN(const data::DoubleColumn* measure,
                        table_->DoubleColumnByName(spec.measure));
    std::vector<int64_t> counts(result.num_bins(), 0);
    std::vector<double> sums(result.num_bins(), 0.0);
    auto add = [&](int64_t bin, size_t row) {
      if (bin < 0 || bin >= static_cast<int64_t>(counts.size())) return;
      if (measure->IsNull(row)) return;
      ++counts[static_cast<size_t>(bin)];
      sums[static_cast<size_t>(bin)] += measure->at(row);
    };
    if (spec.num_bins == 0) {
      VS_ASSIGN_OR_RETURN(const data::CategoricalColumn* dim,
                          table_->CategoricalColumnByName(spec.dimension));
      // Result bins follow dictionary order.
      for (size_t r = 0; r < dim->size(); ++r) add(dim->code(r), r);
    } else {
      VS_ASSIGN_OR_RETURN(const data::DoubleColumn* dim,
                          table_->DoubleColumnByName(spec.dimension));
      const auto [lo_it, hi_it] =
          std::minmax_element(dim->data().begin(), dim->data().end());
      const double lo = *lo_it;
      const double width = (*hi_it - lo) / spec.num_bins;
      for (size_t r = 0; r < dim->size(); ++r) {
        const int64_t bin = std::min<int64_t>(
            spec.num_bins - 1, static_cast<int64_t>((dim->at(r) - lo) / width));
        add(bin, r);
      }
    }
    for (size_t b = 0; b < counts.size(); ++b) {
      const bool is_count = spec.func == data::AggregateFunction::kCount;
      const double want = is_count ? static_cast<double>(counts[b]) : sums[b];
      const double got = result.values[b];
      if (result.counts[b] != counts[b] ||
          std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        char message[256];
        std::snprintf(message, sizeof(message),
                      "reference cell %s bin %zu: library count %lld value "
                      "%.17g, plain loop count %lld value %.17g",
                      spec.ToString().c_str(), b,
                      static_cast<long long>(result.counts[b]), got,
                      static_cast<long long>(counts[b]), want);
        return vs::Status::Internal(message);
      }
      ++cells;
    }
  }
  return cells;
}

}  // namespace pb
