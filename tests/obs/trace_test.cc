#include "obs/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace vs::obs {
namespace {

TraceEvent MakeEvent(const std::string& name, int64_t start_us) {
  TraceEvent e;
  e.name = name;
  e.start_us = start_us;
  e.duration_us = 1;
  e.thread_id = CurrentThreadId();
  return e;
}

TEST(TraceCollector, RecordsAndSnapshotsInOrder) {
  TraceCollector collector(8);
  collector.Record(MakeEvent("a", 1));
  collector.Record(MakeEvent("b", 2));
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollector, RingOverflowDropsOldestFirst) {
  TraceCollector collector(3);
  for (int i = 0; i < 5; ++i) {
    collector.Record(MakeEvent("e" + std::to_string(i), i));
  }
  EXPECT_EQ(collector.size(), 3u);
  EXPECT_EQ(collector.dropped(), 2u);
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // The two oldest (e0, e1) were overwritten; the rest stay ordered.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
}

TEST(TraceCollector, ClearResetsRetainedEvents) {
  TraceCollector collector(4);
  collector.Record(MakeEvent("x", 1));
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_TRUE(collector.Snapshot().empty());
}

/// Every Span records into the process-wide collector; each test starts
/// it empty.
TraceCollector& ClearedDefault() {
  TraceCollector& collector = TraceCollector::Default();
  collector.Clear();
  return collector;
}

TEST(Span, RecordsNestedParentage) {
  TraceCollector& collector = ClearedDefault();
  {
    Span outer("outer");
    ASSERT_NE(outer.id(), 0u);
    {
      Span inner("inner");
      EXPECT_NE(inner.id(), outer.id());
    }
  }
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on destruction: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].parent_id, events[1].id);
  EXPECT_EQ(events[1].parent_id, 0u);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
  EXPECT_GE(events[0].start_us, events[1].start_us);
  // Outside a request the events carry no request id.
  EXPECT_EQ(events[0].request_id, "");
}

TEST(Span, SiblingsShareTheParent) {
  TraceCollector& collector = ClearedDefault();
  {
    Span outer("outer");
    { Span a("a"); }
    { Span b("b"); }
  }
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[0].parent_id, events[2].id);
  EXPECT_EQ(events[1].parent_id, events[2].id);
}

TEST(Span, ThreadsGetDistinctThreadIds) {
  TraceCollector& collector = ClearedDefault();
  { Span span("main-thread"); }
  std::thread other([] { Span span("other-thread"); });
  other.join();
  const auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  // A span on a new thread has no parent from the main thread.
  EXPECT_EQ(events[1].parent_id, 0u);
}

TEST(ChromeTrace, JsonContainsCompleteEvents) {
  TraceCollector& collector = ClearedDefault();
  {
    Span outer("Build");
    { Span inner("Scan"); }
  }
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"Build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"Scan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":"), std::string::npos) << json;
  // Valid JSON object braces at both ends.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ChromeTrace, JsonCarriesTheRequestId) {
  TraceCollector collector(4);
  TraceEvent event = MakeEvent("http.dispatch", 1);
  event.request_id = "req-7";
  collector.Record(event);
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_NE(json.find("\"request_id\":\"req-7\""), std::string::npos)
      << json;
}

TEST(ChromeTrace, ConcurrentSpansAllLand) {
  TraceCollector& collector = ClearedDefault();
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  ASSERT_GE(collector.capacity(), static_cast<size_t>(kThreads) * kSpans);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        Span span("work");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.size(),
            static_cast<size_t>(kThreads) * kSpans);
  EXPECT_EQ(collector.dropped(), 0u);
}

}  // namespace
}  // namespace vs::obs
