/// Integration tests of the shared feature-matrix cache through the
/// SessionManager surface: sessions with equal build identity share one
/// canonical matrix, restore is served from the cache, and per-session
/// refinement stays isolated (COW) from other live sessions.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"

namespace vs::serve {
namespace {

const std::string& CacheTestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 11;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_mgr_cache_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

SessionManagerOptions CacheOptions() {
  SessionManagerOptions options;
  options.max_sessions = 16;
  options.session_ttl_seconds = 3600;
  return options;
}

CreateSpec Spec(const std::string& filter = "") {
  CreateSpec spec;
  spec.filter = filter;
  spec.options.k = 3;
  spec.options.seed = 5;
  return spec;
}

TEST(SessionManagerCacheTest, EqualSpecsShareOneCanonicalMatrix) {
  SessionManager manager(CacheOptions(), CacheTestTablePath());
  auto a = manager.Create(Spec());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = manager.Create(Spec());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(manager.cached_matrices(), 1u);
  const FeatureMatrixCacheStats stats = manager.matrix_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // Both sessions are fully usable over the shared matrix.
  EXPECT_TRUE(manager.Next(a->id).ok());
  EXPECT_TRUE(manager.Next(b->id).ok());
}

TEST(SessionManagerCacheTest, DistinctSelectionsGetDistinctEntries) {
  SessionManager manager(CacheOptions(), CacheTestTablePath());
  ASSERT_TRUE(manager.Create(Spec()).ok());
  ASSERT_TRUE(manager.Create(Spec("time_in_hospital >= 6")).ok());

  EXPECT_EQ(manager.cached_matrices(), 2u);
  EXPECT_EQ(manager.matrix_cache().stats().misses, 2u);
  EXPECT_EQ(manager.matrix_cache().stats().hits, 0u);
}

TEST(SessionManagerCacheTest, DifferentFiltersShareOneReferenceFill) {
  obs::Counter* fills =
      obs::MetricsRegistry::Default().GetCounter("reference_store.fills");
  SessionManager manager(CacheOptions(), CacheTestTablePath());
  const uint64_t before_load = fills->value();
  ASSERT_TRUE(manager.PreloadDefaultTable().ok());
  EXPECT_EQ(fills->value(), before_load);  // the store fills lazily

  obs::TraceCollector& trace = obs::TraceCollector::Default();
  trace.Clear();
  ASSERT_TRUE(manager.Create(Spec("time_in_hospital >= 6")).ok());
  EXPECT_GT(fills->value(), before_load);
  // The first create paid the fill, and its trace shows it.
  std::map<uint64_t, obs::TraceEvent> by_id;
  for (const obs::TraceEvent& event : trace.Snapshot()) {
    by_id[event.id] = event;
  }
  bool fill_under_create = false;
  for (const auto& [id, event] : by_id) {
    if (event.name != "reference_store.fill") continue;
    for (uint64_t up = event.parent_id; up != 0 && by_id.count(up) > 0;
         up = by_id[up].parent_id) {
      if (by_id[up].name == "session_manager.create") {
        fill_under_create = true;
      }
    }
  }
  EXPECT_TRUE(fill_under_create);

  // A different filter is a matrix-cache miss, yet scans no reference.
  const uint64_t after_first = fills->value();
  ASSERT_TRUE(manager.Create(Spec("time_in_hospital < 6")).ok());
  EXPECT_EQ(manager.matrix_cache().stats().misses, 2u);
  EXPECT_EQ(fills->value(), after_first);
}

TEST(SessionManagerCacheTest, LabelingOneSessionDoesNotPerturbAnother) {
  SessionManager manager(CacheOptions(), CacheTestTablePath());
  auto a = manager.Create(Spec());
  ASSERT_TRUE(a.ok());
  auto b = manager.Create(Spec());
  ASSERT_TRUE(b.ok());

  // Give B a fitted model, then drive A through labels (which refine A's
  // COW matrix copy); B's recommendation must not move.
  for (int i = 0; i < 2; ++i) {
    auto batch = manager.Next(b->id);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(
        manager.Label(b->id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0).ok());
  }
  auto b_before = manager.TopK(b->id);
  ASSERT_TRUE(b_before.ok()) << b_before.status().ToString();
  for (int i = 0; i < 8; ++i) {
    auto batch = manager.Next(a->id);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->views.empty());
    ASSERT_TRUE(
        manager.Label(a->id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0).ok());
  }
  auto b_after = manager.TopK(b->id);
  ASSERT_TRUE(b_after.ok());
  EXPECT_EQ(b_before->views, b_after->views);
  EXPECT_EQ(b_before->scores, b_after->scores);
}

TEST(SessionManagerCacheTest, RestoreIsServedFromCache) {
  SessionManagerOptions options = CacheOptions();
  options.spill_dir = ::testing::TempDir() + "serve_mgr_cache_spill";
  SessionManager manager(options, CacheTestTablePath());
  auto info = manager.Create(Spec());
  ASSERT_TRUE(info.ok());
  for (int i = 0; i < 4; ++i) {
    auto batch = manager.Next(info->id);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(
        manager.Label(info->id, batch->views[0], i % 2 == 0 ? 1.0 : 0.0)
            .ok());
  }
  auto before = manager.TopK(info->id);
  ASSERT_TRUE(before.ok());

  ASSERT_EQ(manager.EvictIdleOlderThan(0.0), 1u);
  const uint64_t misses_before = manager.matrix_cache().stats().misses;

  // The restore path rebuilds the session around the *cached* canonical
  // matrix instead of re-running offline initialization.
  auto after = manager.TopK(info->id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->views, after->views);
  EXPECT_EQ(before->scores, after->scores);
  const FeatureMatrixCacheStats stats = manager.matrix_cache().stats();
  EXPECT_EQ(stats.misses, misses_before);  // no rebuild
  EXPECT_GT(stats.hits, 0u);
}

TEST(SessionManagerCacheTest, DisabledCacheKeepsServingCorrectly) {
  SessionManagerOptions options = CacheOptions();
  options.matrix_cache_entries = 0;
  SessionManager manager(options, CacheTestTablePath());
  auto a = manager.Create(Spec());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = manager.Create(Spec());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(manager.cached_matrices(), 0u);
  EXPECT_EQ(manager.matrix_cache().stats().misses, 2u);
  EXPECT_TRUE(manager.Next(a->id).ok());
  EXPECT_TRUE(manager.Next(b->id).ok());
}

TEST(SessionManagerCacheTest, CacheSurvivesSessionDeletion) {
  SessionManager manager(CacheOptions(), CacheTestTablePath());
  auto a = manager.Create(Spec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(manager.Delete(a->id).ok());
  EXPECT_EQ(manager.cached_matrices(), 1u);

  // A new equal-identity session is a pure cache hit.
  auto b = manager.Create(Spec());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(manager.matrix_cache().stats().misses, 1u);
  EXPECT_EQ(manager.matrix_cache().stats().hits, 1u);
}

}  // namespace
}  // namespace vs::serve
