#include "common/latency.h"

#include <gtest/gtest.h>

namespace vs {
namespace {

TEST(LatencyPercentileTest, DefinedRuleNeedsEnoughSamples) {
  // p needs at least 1/(1-p) samples: p50 -> 2, p95 -> 20, p99 -> 100.
  EXPECT_FALSE(LatencyPercentileDefined(0, 0.5));
  EXPECT_FALSE(LatencyPercentileDefined(1, 0.5));
  EXPECT_TRUE(LatencyPercentileDefined(2, 0.5));
  EXPECT_FALSE(LatencyPercentileDefined(19, 0.95));
  EXPECT_TRUE(LatencyPercentileDefined(20, 0.95));
  EXPECT_FALSE(LatencyPercentileDefined(99, 0.99));
  EXPECT_TRUE(LatencyPercentileDefined(100, 0.99));
}

TEST(LatencyPercentileTest, NearestRankIndex) {
  // min(n-1, floor(p*(n-1) + 0.5)) — the nearest-rank formula.
  EXPECT_EQ(LatencyPercentileIndex(1, 0.99), 0u);
  EXPECT_EQ(LatencyPercentileIndex(100, 0.5), 50u);
  EXPECT_EQ(LatencyPercentileIndex(100, 0.99), 98u);
  EXPECT_EQ(LatencyPercentileIndex(100, 1.0), 99u);
  EXPECT_EQ(LatencyPercentileIndex(101, 0.99), 99u);
}

TEST(LatencyPercentileTest, SortedLookup) {
  EXPECT_EQ(LatencyPercentileSorted({}, 0.5), -1.0);
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  EXPECT_EQ(LatencyPercentileSorted(sorted, 0.5), 51.0);
  EXPECT_EQ(LatencyPercentileSorted(sorted, 0.99), 99.0);
  EXPECT_EQ(LatencyPercentileSorted(sorted, 0.0), 1.0);
}

TEST(LatencyRecorderTest, SummarizeConvertsSecondsToMs) {
  LatencyRecorder recorder;
  recorder.Record(0.001);
  recorder.Record(0.002);
  recorder.Record(0.003);
  recorder.Record(0.004);
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 4u);
  EXPECT_DOUBLE_EQ(summary.max_ms, 4.0);
  EXPECT_NEAR(summary.mean_ms, 2.5, 1e-9);
  EXPECT_NEAR(summary.p50_ms, 3.0, 1e-9);  // nearest-rank over 4 samples
  EXPECT_EQ(summary.p99_ms, -1.0);         // undefined below 100 samples
}

TEST(LatencyRecorderTest, WithinBudgetCountsAtOrUnder) {
  LatencyRecorder recorder;
  recorder.Record(0.010);
  recorder.Record(0.020);
  recorder.Record(0.030);
  const LatencySummary summary = recorder.Summarize(/*budget_ms=*/20.0);
  EXPECT_EQ(summary.budget_ms, 20.0);
  EXPECT_EQ(summary.within_budget, 2u);  // 10ms and 20ms; 30ms is over
  EXPECT_NEAR(summary.WithinFraction(), 2.0 / 3.0, 1e-12);
}

TEST(LatencyRecorderTest, MergeCombinesWorkers) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.Record(0.001);
  b.Record(0.002);
  b.Record(0.003);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.Summarize().max_ms, 3.0);
}

TEST(LatencySummaryTest, TailRulePrefersP99ElseP50) {
  LatencyRecorder small;
  small.Record(0.005);
  small.Record(0.015);
  // Two samples: p99 undefined, so the tail is p50 — the same rule the
  // server-side SLO tracker applies to sparse windows.
  const LatencySummary sparse = small.Summarize(/*budget_ms=*/12.0);
  EXPECT_EQ(sparse.p99_ms, -1.0);
  EXPECT_EQ(sparse.TailMs(), sparse.p50_ms);
  EXPECT_FALSE(sparse.TailWithinBudget());  // p50 = 15ms > 12ms

  LatencyRecorder big;
  for (int i = 0; i < 200; ++i) big.Record(0.001);
  const LatencySummary dense = big.Summarize(/*budget_ms=*/2.0);
  EXPECT_GT(dense.p99_ms, 0.0);
  EXPECT_EQ(dense.TailMs(), dense.p99_ms);
  EXPECT_TRUE(dense.TailWithinBudget());
}

TEST(LatencySummaryTest, EmptyAndUnbudgetedEdges) {
  const LatencySummary empty = LatencyRecorder().Summarize(10.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.WithinFraction(), 1.0);  // nothing to judge
  EXPECT_EQ(empty.TailMs(), -1.0);
  EXPECT_TRUE(empty.TailWithinBudget());

  LatencyRecorder recorder;
  recorder.Record(5.0);  // 5000ms, but no budget configured
  EXPECT_TRUE(recorder.Summarize(0.0).TailWithinBudget());
}

}  // namespace
}  // namespace vs
