#ifndef VS_COMMON_HASH_H_
#define VS_COMMON_HASH_H_

/// \file hash.h
/// \brief The one byte hash: FNV-1a 64-bit.
///
/// Every hash that must agree across processes, platforms or runs goes
/// through it: consistent-hash ring placement, feature-matrix cache keys,
/// workload ledger digests, fault-injection decisions and the group-by
/// hash grouper.  Unlike std::hash its values are fixed by the published
/// FNV-1a definition, and the reference vectors in
/// tests/common/hash_test.cc pin them.

#include <cstddef>
#include <cstdint>

namespace vs {

/// The published FNV-1a 64-bit offset basis (the hash of no bytes).
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// The seed of the workload ledger digest, the fault-injection decisions,
/// stress's fault-plan digest and the group-by hash grouper: the offset
/// basis's decimal spelling (14695981039346656037) with its last digit
/// dropped.  It is only a different starting state, not a weaker hash,
/// and keeping it keeps recorded ledger digests and fault plans
/// reproducible.
inline constexpr uint64_t kFnv1a64LegacySeed = 1469598103934665603ULL;

/// FNV-1a 64-bit over \p size bytes at \p data, starting from the state
/// \p seed.  The default seed is the offset basis, which gives the
/// published hash; passing an earlier result as the seed continues that
/// hash over more bytes, so multi-field keys chain field by field.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = kFnv1a64Offset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    seed ^= bytes[i];
    seed *= 0x100000001b3ULL;
  }
  return seed;
}

}  // namespace vs

#endif  // VS_COMMON_HASH_H_
