#include "core/reference_store.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_matrix.h"
#include "core_test_util.h"
#include "data/generator.h"
#include "data/query.h"
#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace vs::core {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

/// Element-wise bit equality of two raw matrices.
void ExpectSameRaw(const FeatureMatrix& a, const FeatureMatrix& b) {
  ASSERT_EQ(a.raw().rows(), b.raw().rows());
  ASSERT_EQ(a.raw().cols(), b.raw().cols());
  for (size_t i = 0; i < a.raw().rows(); ++i) {
    for (size_t j = 0; j < a.raw().cols(); ++j) {
      EXPECT_EQ(a.raw()(i, j), b.raw()(i, j)) << "view " << i << " feature "
                                              << j;
    }
  }
}

/// A 20k-row large-scale table: five (dimension, bins) groups of 20 views.
struct BigWorld {
  std::unique_ptr<data::Table> table;
  std::vector<ViewSpec> views;
  UtilityFeatureRegistry registry = UtilityFeatureRegistry::Default();

  BigWorld() {
    data::LargeScaleOptions options;
    options.num_rows = 20000;
    options.cardinalities = {12, 96, 256};
    table = std::make_unique<data::Table>(*data::GenerateLargeScale(options));
    views = *EnumerateViews(*table, ViewEnumerationOptions{});
  }

  data::SelectionVector Select(const std::string& filter) const {
    return *data::SelectRows(*table, ParseFilterOrDie(filter).get());
  }

  static data::PredicatePtr ParseFilterOrDie(const std::string& filter) {
    auto predicate = data::ParseFilter(filter);
    EXPECT_TRUE(predicate.ok()) << filter;
    return std::move(*predicate);
  }
};

TEST(ReferenceStoreTest, GroupsFollowDimensionAndBins) {
  auto world = testutil::MakeMiniWorld();
  ReferenceStore store(world.table.get(), world.views);
  ASSERT_EQ(store.groups(true).size(), 2u);  // color, size
  EXPECT_EQ(store.groups(false).size(), world.views.size());
  for (size_t v = 0; v < world.views.size(); ++v) {
    const ReferenceStore::Slot slot = store.SlotOf(v, true);
    EXPECT_EQ(store.groups(true)[slot.group][slot.member], v);
    EXPECT_EQ(world.views[store.groups(true)[slot.group][0]].dimension,
              world.views[v].dimension);
    EXPECT_EQ(store.SlotOf(v, false).group, v);
  }
  EXPECT_EQ(store.ApproxBytes(), 0u);  // nothing scanned at construction
}

TEST(ReferenceStoreTest, SharedStoreBuildEqualsStorelessBuild) {
  auto world = testutil::MakeMiniWorld();
  auto store = std::make_shared<ReferenceStore>(world.table.get(),
                                                world.views);
  for (double rate : {1.0, 0.4}) {
    for (bool shared_scan : {true, false}) {
      FeatureMatrixOptions options;
      options.sample_rate = rate;
      options.shared_scan = shared_scan;
      auto with_store =
          FeatureMatrix::Build(world.table.get(), world.views, world.query,
                               world.registry.get(), options, store);
      auto storeless =
          FeatureMatrix::Build(world.table.get(), world.views, world.query,
                               world.registry.get(), options);
      ASSERT_TRUE(with_store.ok()) << with_store.status().ToString();
      ASSERT_TRUE(storeless.ok()) << storeless.status().ToString();
      ExpectSameRaw(*with_store, *storeless);
      EXPECT_EQ(with_store->reference_store(), store);
      EXPECT_NE(storeless->reference_store(), store);
    }
  }
}

TEST(ReferenceStoreTest, AlphaBuildRefinedToExactEqualsExactBuild) {
  auto world = testutil::MakeMiniWorld();  // exact, private store
  std::vector<size_t> all(world.views.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto shared = std::make_shared<ReferenceStore>(world.table.get(),
                                                 world.views);
  for (std::shared_ptr<ReferenceStore> store : {shared, std::shared_ptr<
                                                    ReferenceStore>()}) {
    FeatureMatrixOptions options;
    options.sample_rate = 0.1;
    auto rough =
        FeatureMatrix::Build(world.table.get(), world.views, world.query,
                             world.registry.get(), options, store);
    ASSERT_TRUE(rough.ok()) << rough.status().ToString();
    ASSERT_FALSE(rough->AllExact());
    ASSERT_TRUE(rough->RefineRows(all).ok());
    ASSERT_TRUE(rough->AllExact());
    ExpectSameRaw(*rough, *world.matrix);
  }
}

TEST(ReferenceStoreTest, StoreMustMatchTableAndViews) {
  auto world = testutil::MakeMiniWorld();
  std::vector<ViewSpec> fewer(world.views.begin(), world.views.end() - 1);
  auto store = std::make_shared<ReferenceStore>(world.table.get(), fewer);
  auto built = FeatureMatrix::Build(world.table.get(), world.views,
                                    world.query, world.registry.get(),
                                    FeatureMatrixOptions{}, store);
  EXPECT_EQ(built.status().code(), vs::StatusCode::kInvalidArgument);
}

TEST(ReferenceStoreTest, ConcurrentBuildsFillEachGroupOnce) {
  BigWorld world;
  auto store = std::make_shared<ReferenceStore>(world.table.get(),
                                                world.views);
  const size_t num_groups = store->groups(true).size();
  ASSERT_EQ(num_groups, 5u);
  constexpr int kThreads = 8;
  std::vector<data::SelectionVector> selections;
  for (int t = 0; t < kThreads; ++t) {
    const double lo = 0.1 * t;
    selections.push_back(world.Select(
        "d0 >= " + std::to_string(lo) + " AND d0 < " +
        std::to_string(lo + 0.15)));
  }
  const uint64_t fills_before = CounterValue("reference_store.fills");
  const uint64_t hits_before = CounterValue("reference_store.hits");

  std::vector<vs::Result<FeatureMatrix>> built(
      kThreads, vs::Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      built[t] = FeatureMatrix::Build(world.table.get(), world.views,
                                      selections[t], &world.registry,
                                      FeatureMatrixOptions{}, store);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(CounterValue("reference_store.fills") - fills_before, num_groups);
  EXPECT_EQ(CounterValue("reference_store.hits") - hits_before,
            (kThreads - 1) * num_groups);
  EXPECT_EQ(store->stats().fills, num_groups);
  EXPECT_GT(store->ApproxBytes(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(built[t].ok()) << built[t].status().ToString();
    auto storeless = FeatureMatrix::Build(world.table.get(), world.views,
                                          selections[t], &world.registry,
                                          FeatureMatrixOptions{});
    ASSERT_TRUE(storeless.ok());
    ExpectSameRaw(*built[t], *storeless);
  }
}

TEST(ReferenceStoreTest, RoughBuildsShareSampleAndRefinementScansNoTable) {
  BigWorld world;
  auto store = std::make_shared<ReferenceStore>(world.table.get(),
                                                world.views);
  const size_t num_groups = store->groups(true).size();
  FeatureMatrixOptions rough_options;
  rough_options.sample_rate = 0.1;
  auto first = FeatureMatrix::Build(world.table.get(), world.views,
                                    world.Select("d0 < 0.3"), &world.registry,
                                    rough_options, store);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(store->stats().samples_drawn, 1u);
  EXPECT_EQ(store->stats().fills, num_groups);

  // A second filter reuses the sample and its references.
  auto second = FeatureMatrix::Build(world.table.get(), world.views,
                                     world.Select("d1 >= 0.5"),
                                     &world.registry, rough_options, store);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store->stats().samples_drawn, 1u);
  EXPECT_EQ(store->stats().fills, num_groups);

  // Refining fills each full-table group once; a later matrix refines on
  // those entries and on its own query rows only.
  std::vector<size_t> all(world.views.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ASSERT_TRUE(first->RefineRows(all).ok());
  EXPECT_EQ(store->stats().fills, 2 * num_groups);
  ASSERT_TRUE(second->RefineRows(all).ok());
  EXPECT_EQ(store->stats().fills, 2 * num_groups);
  EXPECT_EQ(second->RefineCostPerRow(),
            static_cast<int64_t>(second->query_selection().size()));
}

TEST(ReferenceStoreTest, FailedFillDoesNotPoisonKey) {
  auto world = testutil::MakeMiniWorld();
  auto store = std::make_shared<ReferenceStore>(world.table.get(),
                                                world.views);
  fault::FaultInjector injector(7);
  injector.SetSchedule("reference_store.fill_fail", {1});
  fault::ScopedFaultInjector installed(&injector);

  auto failed = FeatureMatrix::Build(world.table.get(), world.views,
                                     world.query, world.registry.get(),
                                     FeatureMatrixOptions{}, store);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(store->stats().fills, 0u);

  auto retried = FeatureMatrix::Build(world.table.get(), world.views,
                                      world.query, world.registry.get(),
                                      FeatureMatrixOptions{}, store);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(store->stats().fills, store->groups(true).size());
  ExpectSameRaw(*retried, *world.matrix);
}

}  // namespace
}  // namespace vs::core
