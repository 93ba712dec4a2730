#include "core/matrix_identity.h"

#include <gtest/gtest.h>

#include "core_test_util.h"

namespace vs::core {
namespace {

TEST(MatrixIdentityTest, KeyIsDeterministicAndWellFormed) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string a = FeatureMatrixCacheKey(
      "mini#240", world.query, world.views, *world.registry, options);
  const std::string b = FeatureMatrixCacheKey(
      "mini#240", world.query, world.views, *world.registry, options);
  EXPECT_EQ(a, b);
  // Five fixed-width hex groups: 5*16 digits + 4 dashes.
  ASSERT_EQ(a.size(), 84u);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i == 16 || i == 33 || i == 50 || i == 67) {
      EXPECT_EQ(a[i], '-') << "position " << i;
    } else {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(a[i])))
          << "position " << i;
    }
  }
}

TEST(MatrixIdentityTest, KeyHashesSelectionContentNotProvenance) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string base = FeatureMatrixCacheKey(
      "t", world.query, world.views, *world.registry, options);

  // An equal-content copy of the selection (different vector object,
  // different hypothetical filter text) keys identically.
  data::SelectionVector copy = world.query;
  EXPECT_EQ(base, FeatureMatrixCacheKey("t", copy, world.views,
                                        *world.registry, options));

  // Any change to the selected rows changes the key.
  data::SelectionVector fewer = world.query;
  fewer.pop_back();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", fewer, world.views,
                                        *world.registry, options));
  data::SelectionVector all = world.table->AllRows();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", all, world.views,
                                        *world.registry, options));
}

TEST(MatrixIdentityTest, KeySensitivity) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions options;
  const std::string base = FeatureMatrixCacheKey(
      "t", world.query, world.views, *world.registry, options);

  // Table identity.
  EXPECT_NE(base, FeatureMatrixCacheKey("t2", world.query, world.views,
                                        *world.registry, options));

  // View space: dropping one view must change the key.
  std::vector<ViewSpec> fewer_views = world.views;
  fewer_views.pop_back();
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, fewer_views,
                                        *world.registry, options));

  // Registry: an empty feature set keys differently.
  UtilityFeatureRegistry empty;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        empty, options));

  // Value-affecting options.
  FeatureMatrixOptions sampled = options;
  sampled.sample_rate = 0.5;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, sampled));
  FeatureMatrixOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, reseeded));
  FeatureMatrixOptions per_view = options;
  per_view.shared_scan = false;
  EXPECT_NE(base, FeatureMatrixCacheKey("t", world.query, world.views,
                                        *world.registry, per_view));
}

TEST(MatrixIdentityTest, NumThreadsDoesNotAffectKey) {
  auto world = testutil::MakeMiniWorld();
  FeatureMatrixOptions sequential;
  sequential.num_threads = 0;
  FeatureMatrixOptions parallel;
  parallel.num_threads = 8;
  // Results are documented identical across thread counts (see
  // FeatureMatrixTest.ParallelBuildMatchesSequential), so the key must
  // let those builds share one cache slot.
  EXPECT_EQ(FeatureMatrixCacheKey("t", world.query, world.views,
                                  *world.registry, sequential),
            FeatureMatrixCacheKey("t", world.query, world.views,
                                  *world.registry, parallel));
}

}  // namespace
}  // namespace vs::core
