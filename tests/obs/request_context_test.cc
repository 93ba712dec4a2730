#include "obs/request_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vs::obs {
namespace {

TEST(RequestContext, NoContextInstalledByDefault) {
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContext, SpanWithoutContextReachesOnlyTheRing) {
  TraceCollector& collector = TraceCollector::Default();
  collector.Clear();
  { Span span("session_manager.label"); }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  const std::vector<TraceEvent> events = collector.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "session_manager.label");
  EXPECT_EQ(events[0].request_id, "");
}

TEST(RequestContext, ScopedInstallRestoresPrevious) {
  RequestContext outer("id-outer", "GET", "/a");
  RequestContext inner("id-inner", "GET", "/b");
  {
    ScopedRequestContext scoped_outer(&outer);
    EXPECT_EQ(CurrentRequestContext(), &outer);
    {
      ScopedRequestContext scoped_inner(&inner);
      EXPECT_EQ(CurrentRequestContext(), &inner);
    }
    EXPECT_EQ(CurrentRequestContext(), &outer);
  }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContext, ContextIsThreadLocal) {
  RequestContext context("id", "GET", "/x");
  ScopedRequestContext scoped(&context);
  ASSERT_EQ(CurrentRequestContext(), &context);
  std::thread other([] { EXPECT_EQ(CurrentRequestContext(), nullptr); });
  other.join();
}

TEST(RequestContext, SpanRecordsIntoCurrentContextAndTheRing) {
  TraceCollector& collector = TraceCollector::Default();
  collector.Clear();
  RequestContext context("id-1", "POST", "/sessions");
  {
    ScopedRequestContext scoped(&context);
    Span span("http.dispatch");
    EXPECT_STREQ(context.current_stage(), "http.dispatch");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(context.current_stage(), nullptr);
  const std::vector<StageRecord> stages = context.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_STREQ(stages[0].stage, "http.dispatch");
  EXPECT_GE(stages[0].start_us, 0);
  EXPECT_GT(stages[0].duration_us, 0);
  // The same region, once, in the ring: tagged with the request id and
  // timed by the same two clock reads.
  const std::vector<TraceEvent> events = collector.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "http.dispatch");
  EXPECT_EQ(events[0].request_id, "id-1");
  EXPECT_EQ(events[0].duration_us, stages[0].duration_us);
  // And in the stage's process-wide histogram.
  const MetricsSnapshot metrics = MetricsRegistry::Default().SnapshotAll();
  bool observed = false;
  for (const auto& histogram : metrics.histograms) {
    if (histogram.name == "serve.stage_seconds.http.dispatch") {
      observed = histogram.count > 0;
    }
  }
  EXPECT_TRUE(observed);
}

TEST(RequestContext, NestedStagesRestoreParentAndRecordBoth) {
  RequestContext context("id", "POST", "/sessions/s/label");
  {
    ScopedRequestContext scoped(&context);
    Span outer("session_manager.label");
    {
      Span inner("durability.wal_append");
      EXPECT_STREQ(context.current_stage(), "durability.wal_append");
    }
    // The parent stage is current again once the nested span closes.
    EXPECT_STREQ(context.current_stage(), "session_manager.label");
  }
  const std::vector<StageRecord> stages = context.stages();
  ASSERT_EQ(stages.size(), 2u);
  // Completion order: the inner span closes first.
  EXPECT_STREQ(stages[0].stage, "durability.wal_append");
  EXPECT_STREQ(stages[1].stage, "session_manager.label");
  // The outer span's duration includes the inner one.
  EXPECT_GE(stages[1].duration_us, stages[0].duration_us);
}

TEST(RequestContext, EndpointIsSettableAndReadable) {
  RequestContext context("id", "GET", "/sessions/s/next");
  EXPECT_EQ(context.endpoint(), "");
  context.set_endpoint("next");
  EXPECT_EQ(context.endpoint(), "next");
}

TEST(InflightRegistry, RegisterSnapshotUnregister) {
  InflightRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  auto context =
      std::make_shared<RequestContext>("req-7", "GET", "/sessions/s/topk");
  registry.Register(context);
  EXPECT_EQ(registry.size(), 1u);

  std::vector<InflightRequest> rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, "req-7");
  EXPECT_EQ(rows[0].method, "GET");
  EXPECT_EQ(rows[0].path, "/sessions/s/topk");
  EXPECT_EQ(rows[0].endpoint, "-");  // not yet dispatched
  EXPECT_GE(rows[0].age_seconds, 0.0);

  context->set_endpoint("topk");
  context->set_current_stage("session_manager.topk");
  rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].endpoint, "topk");
  EXPECT_STREQ(rows[0].stage, "session_manager.topk");

  registry.Unregister(context.get());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(InflightRegistry, SnapshotFromAnotherThreadSeesLiveStage) {
  // The /statusz use case: one thread serves (and is mid-stage), another
  // thread snapshots.
  InflightRegistry registry;
  auto context = std::make_shared<RequestContext>("req-9", "POST", "/x");
  registry.Register(context);
  context->set_current_stage("fmcache.build");
  std::thread reader([&registry] {
    std::vector<InflightRequest> rows = registry.Snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_STREQ(rows[0].stage, "fmcache.build");
  });
  reader.join();
  registry.Unregister(context.get());
}

}  // namespace
}  // namespace vs::obs
