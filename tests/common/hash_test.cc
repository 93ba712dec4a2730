#include "common/hash.h"

#include <gtest/gtest.h>

#include <string_view>

namespace vs {
namespace {

uint64_t Hash(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

TEST(Fnv1a64Test, MatchesPublishedReferenceVectors) {
  // Ring placement, cache keys, ledger digests and fault plans all rest
  // on these values staying fixed across platforms and builds.
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Hash(""), kFnv1a64Offset);
  EXPECT_EQ(Hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Hash("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, LegacySeedKeepsRecordedDigests) {
  // Ledger digests and fault plans printed by earlier builds hashed from
  // this seed; these values must not move.
  EXPECT_EQ(kFnv1a64LegacySeed, 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a64("a", 1, kFnv1a64LegacySeed), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a64("foobar", 6, kFnv1a64LegacySeed), 0x88fad7c0a8ff07f2ULL);
}

TEST(Fnv1a64Test, SeedContinuesAnEarlierHash) {
  EXPECT_EQ(Fnv1a64("bar", 3, Hash("foo")), Hash("foobar"));
  EXPECT_NE(Fnv1a64("a", 1, 1), Hash("a"));
}

}  // namespace
}  // namespace vs
