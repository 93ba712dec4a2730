#include "cluster/hash_ring.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vs::cluster {
namespace {

/// A pool of session-id-shaped keys, seeded and deterministic.
std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(StrFormat("c%04zx%08zx", i % 17, i * 2654435761u));
  }
  return keys;
}

HashRing RingOf(const std::vector<std::string>& shards,
                int virtual_nodes = 128) {
  HashRing ring(HashRingOptions{virtual_nodes});
  for (const std::string& shard : shards) {
    EXPECT_TRUE(ring.AddShard(shard).ok()) << shard;
  }
  return ring;
}

TEST(HashRingTest, EmptyRingFailsPrecondition) {
  HashRing ring;
  auto shard = ring.ShardFor("anything");
  ASSERT_FALSE(shard.ok());
  EXPECT_TRUE(shard.status().IsFailedPrecondition());
}

TEST(HashRingTest, RejectsDuplicateAndUnknownShards) {
  HashRing ring;
  ASSERT_TRUE(ring.AddShard("a").ok());
  EXPECT_FALSE(ring.AddShard("a").ok());
  EXPECT_FALSE(ring.RemoveShard("b").ok());
  ASSERT_TRUE(ring.RemoveShard("a").ok());
  EXPECT_TRUE(ring.shards().empty());
  EXPECT_EQ(ring.num_points(), 0u);
}

TEST(HashRingTest, PlacementIsDeterministic) {
  const auto keys = Keys(500);
  HashRing a = RingOf({"shard0", "shard1", "shard2", "shard3"});
  HashRing b = RingOf({"shard0", "shard1", "shard2", "shard3"});
  for (const std::string& key : keys) {
    EXPECT_EQ(*a.ShardFor(key), *b.ShardFor(key)) << key;
  }
}

TEST(HashRingTest, PlacementIndependentOfInsertionOrder) {
  const auto keys = Keys(500);
  HashRing forward = RingOf({"alpha", "beta", "gamma", "delta"});
  HashRing reverse = RingOf({"delta", "gamma", "beta", "alpha"});
  for (const std::string& key : keys) {
    EXPECT_EQ(*forward.ShardFor(key), *reverse.ShardFor(key)) << key;
  }
}

TEST(HashRingTest, SingleShardOwnsEverything) {
  HashRing ring = RingOf({"only"});
  for (const std::string& key : Keys(50)) {
    EXPECT_EQ(*ring.ShardFor(key), "only");
  }
}

/// The consistency property the router's caches depend on: adding one
/// shard to N reassigns roughly 1/(N+1) of the keys and never more than
/// 2/N of them; every reassigned key moves *to* the new shard.
TEST(HashRingTest, JoinRemapsBoundedFraction) {
  const auto keys = Keys(4000);
  const std::vector<std::string> base = {"s0", "s1", "s2", "s3"};
  HashRing before = RingOf(base);
  std::vector<std::string> grown = base;
  grown.push_back("s4");
  HashRing after = RingOf(grown);

  size_t moved = 0;
  for (const std::string& key : keys) {
    const std::string from = *before.ShardFor(key);
    const std::string to = *after.ShardFor(key);
    if (from != to) {
      ++moved;
      EXPECT_EQ(to, "s4") << "key moved between pre-existing shards: "
                          << key << " " << from << " -> " << to;
    }
  }
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  // Expected ~1/5; 2/N = 0.5 is the hard bound from ISSUE acceptance.
  EXPECT_GT(moved, 0u);
  EXPECT_LE(fraction, 2.0 / static_cast<double>(base.size()))
      << moved << " of " << keys.size() << " keys moved";
}

/// Removing a shard only remaps the keys it owned.
TEST(HashRingTest, LeaveRemapsOnlyTheLeaversKeys) {
  const auto keys = Keys(4000);
  const std::vector<std::string> base = {"s0", "s1", "s2", "s3"};
  HashRing before = RingOf(base);
  HashRing after = RingOf(base);
  ASSERT_TRUE(after.RemoveShard("s2").ok());

  size_t moved = 0;
  for (const std::string& key : keys) {
    const std::string from = *before.ShardFor(key);
    const std::string to = *after.ShardFor(key);
    if (from == "s2") {
      EXPECT_NE(to, "s2");
      ++moved;
    } else {
      EXPECT_EQ(from, to) << "non-owner key remapped: " << key;
    }
  }
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(moved, 0u);
  EXPECT_LE(fraction, 2.0 / static_cast<double>(base.size()));
}

/// Re-adding a removed shard restores the original placement exactly —
/// this is why ejection keeps arcs in place: keys come home.
TEST(HashRingTest, RemoveThenReAddRestoresPlacement) {
  const auto keys = Keys(1000);
  HashRing stable = RingOf({"s0", "s1", "s2"});
  HashRing churned = RingOf({"s0", "s1", "s2"});
  ASSERT_TRUE(churned.RemoveShard("s1").ok());
  ASSERT_TRUE(churned.AddShard("s1").ok());
  for (const std::string& key : keys) {
    EXPECT_EQ(*stable.ShardFor(key), *churned.ShardFor(key)) << key;
  }
}

/// With 128 virtual nodes the worst shard's key share stays within 20%
/// of fair share (the number the default in HashRingOptions promises).
TEST(HashRingTest, VirtualNodesBalanceLoad) {
  const auto keys = Keys(20000);
  const std::vector<std::string> shards = {"s0", "s1", "s2", "s3"};
  HashRing ring = RingOf(shards, 128);
  std::map<std::string, size_t> counts;
  for (const std::string& key : keys) ++counts[*ring.ShardFor(key)];
  ASSERT_EQ(counts.size(), shards.size()) << "some shard got no keys";
  const double fair =
      static_cast<double>(keys.size()) / static_cast<double>(shards.size());
  for (const auto& [shard, count] : counts) {
    const double deviation =
        (static_cast<double>(count) - fair) / fair;
    EXPECT_LT(deviation, 0.20) << shard << " owns " << count
                               << " keys, fair share " << fair;
    EXPECT_GT(deviation, -0.20) << shard << " owns " << count
                                << " keys, fair share " << fair;
  }
}

TEST(HashRingTest, NumPointsCountsVirtualNodes) {
  HashRing ring = RingOf({"a", "b"}, 64);
  EXPECT_EQ(ring.num_points(), 128u);
}

}  // namespace
}  // namespace vs::cluster
