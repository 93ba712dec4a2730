#ifndef VS_CLUSTER_HASH_RING_H_
#define VS_CLUSTER_HASH_RING_H_

/// \file hash_ring.h
/// \brief Consistent-hash ring mapping session ids onto shard names.
///
/// The router places every session by hashing its id onto a ring of
/// virtual nodes (each shard owns `virtual_nodes` points, hashed from
/// "name#i").  Two properties make this the right structure for session
/// routing:
///
///  - *Stability*: adding or removing one shard out of N only remaps the
///    keys whose ring arcs the change touches — about 1/N of them, and
///    never more than the points the joining/leaving shard owns — so a
///    scale-out event does not cold-start every shard's caches.  (The
///    MQO-style win of routing overlapping sessions to the same worker,
///    see docs/ARCHITECTURE.md "Cluster topology".)
///  - *Determinism*: placement is a pure function of (shard set,
///    virtual_nodes, key), so any router replica — or a test — computes
///    the same assignment without coordination.
///
/// Not thread-safe: the router builds the ring at startup and treats it
/// as immutable while serving; membership *health* is tracked separately
/// (failure_detector.h) so an ejected shard keeps its arcs and its keys
/// come back to it on re-admission rather than rehashing the world.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace vs::cluster {

struct HashRingOptions {
  /// Ring points per shard.  More points = better balance (stddev of
  /// arc share shrinks like 1/sqrt(virtual_nodes)) at the cost of a
  /// larger sorted array.  128 keeps worst-case shard load within ~20%
  /// of fair share for small clusters (pinned by hash_ring_test.cc).
  int virtual_nodes = 128;
};

class HashRing {
 public:
  explicit HashRing(HashRingOptions options = {});

  /// Adds a shard's virtual nodes.  Duplicate names are rejected.
  Status AddShard(std::string_view name);

  /// Removes a shard and its points.  Unknown names are rejected.
  Status RemoveShard(std::string_view name);

  /// Shard owning `key`: the first ring point clockwise from the key's
  /// ring position, wrapping at the top.  FailedPrecondition when the
  /// ring is empty.
  Result<std::string> ShardFor(std::string_view key) const;

  const std::vector<std::string>& shards() const { return shards_; }
  size_t num_points() const { return points_.size(); }

 private:
  void Rebuild();

  HashRingOptions options_;
  std::vector<std::string> shards_;
  /// Sorted (point hash, shard index) pairs; lookup is one upper_bound.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

}  // namespace vs::cluster

#endif  // VS_CLUSTER_HASH_RING_H_
