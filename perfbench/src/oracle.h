#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_
/// \file oracle.h
/// \brief Everything the benchmark knows independently of the served
/// answers: the table, exact feature matrices built through the library's
/// scalar group-by path (`use_kernels=false`), the paper's simulated user
/// (a Table 2 u*), and an in-process ViewSeeker replay.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/feature_matrix.h"
#include "core/utility_features.h"
#include "core/view.h"
#include "data/table.h"

namespace pb {

namespace core = vs::core;
namespace data = vs::data;

/// k of every session (the server default).
constexpr int kTopK = 5;

/// Served scores must match the replay within this absolute tolerance:
/// the served matrix comes from the typed kernels, the replay's from the
/// scalar fold, and the two may differ in the last bits.
constexpr double kScoreTolerance = 1e-9;

/// Final top-k of a replayed session.
struct Replay {
  std::vector<size_t> views;
  std::vector<double> scores;
};

class Oracle {
 public:
  /// Loads the table and enumerates the server's view space.
  static vs::Result<std::unique_ptr<Oracle>> Load(const std::string& path);

  /// Builds one exact scalar matrix per filter on \p threads workers.
  vs::Status BuildExact(const std::vector<std::string>& filters,
                        size_t threads);

  /// The simulated user's label for \p view (u* preset \p ustar over the
  /// exact matrix of filter \p filter); u*'s true top-k.
  double Label(size_t filter, int ustar, size_t view) const;
  std::vector<size_t> TrueTopK(size_t filter, int ustar) const;

  /// A fresh ViewSeeker over the exact scalar matrix of \p filter, fed
  /// \p labels in order, then asked for its top-k and scores.
  vs::Result<Replay> ReplaySession(
      size_t filter, const std::vector<std::pair<size_t, double>>& labels)
      const;

  /// Checks sampled reference group-by cells (count and sum per group) of
  /// the library against a plain loop over the columns; returns the number
  /// of cells compared, or an error naming the first mismatch.
  vs::Result<size_t> CheckReferenceCells() const;

  const data::Table& table() const { return *table_; }
  const std::vector<core::ViewSpec>& views() const { return views_; }
  const core::UtilityFeatureRegistry& registry() const { return registry_; }
  size_t num_views() const { return views_.size(); }

 private:
  std::unique_ptr<data::Table> table_;
  std::vector<core::ViewSpec> views_;
  core::UtilityFeatureRegistry registry_ =
      core::UtilityFeatureRegistry::Default();
  std::vector<std::unique_ptr<core::FeatureMatrix>> exact_;
  /// u* scores per (filter, preset), normalized to max 1 as SimulatedUser
  /// does.
  std::vector<std::vector<std::vector<double>>> scores_;
};

}  // namespace pb

#endif  // PERFBENCH_ORACLE_H_
