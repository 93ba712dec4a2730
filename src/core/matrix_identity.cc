#include "core/matrix_identity.h"

#include <bit>
#include <cstring>

#include "common/hash.h"
#include "common/string_util.h"

namespace vs::core {

namespace {

uint64_t MixU64(uint64_t hash, uint64_t v) {
  // Fixed little-endian byte order so keys match across platforms.
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return Fnv1a64(bytes, sizeof(bytes), hash);
}

uint64_t MixString(uint64_t hash, std::string_view s) {
  // Length prefix keeps concatenated fields unambiguous ("ab"+"c" vs
  // "a"+"bc").
  hash = MixU64(hash, s.size());
  return Fnv1a64(s.data(), s.size(), hash);
}

uint64_t MixDouble(uint64_t hash, double v) {
  return MixU64(hash, std::bit_cast<uint64_t>(v));
}

}  // namespace

uint64_t HashSelection(const data::SelectionVector& selection) {
  uint64_t hash = MixU64(kFnv1a64Offset, selection.size());
  for (uint32_t row : selection) {
    hash = MixU64(hash, row);
  }
  return hash;
}

uint64_t HashViewSpecs(const std::vector<ViewSpec>& views) {
  uint64_t hash = MixU64(kFnv1a64Offset, views.size());
  for (const ViewSpec& view : views) {
    hash = MixString(hash, view.dimension);
    hash = MixString(hash, view.measure);
    hash = MixU64(hash, static_cast<uint64_t>(view.func));
    hash = MixU64(hash, static_cast<uint64_t>(
                            static_cast<uint32_t>(view.num_bins)));
  }
  return hash;
}

uint64_t HashRegistry(const UtilityFeatureRegistry& registry) {
  uint64_t hash = MixU64(kFnv1a64Offset, registry.size());
  for (const std::string& name : registry.names()) {
    hash = MixString(hash, name);
  }
  return hash;
}

uint64_t HashBuildOptions(const FeatureMatrixOptions& options) {
  uint64_t hash = kFnv1a64Offset;
  hash = MixDouble(hash, options.sample_rate);
  hash = MixU64(hash, options.seed);
  hash = MixU64(hash, options.shared_scan ? 1 : 0);
  // num_threads and use_kernels are deliberately excluded: both pick an
  // execution strategy, not a result — matrices built either way are
  // interchangeable cache entries.
  return hash;
}

std::string FeatureMatrixCacheKey(std::string_view table_id,
                                  const data::SelectionVector& selection,
                                  const std::vector<ViewSpec>& views,
                                  const UtilityFeatureRegistry& registry,
                                  const FeatureMatrixOptions& options) {
  const uint64_t table_hash = MixString(kFnv1a64Offset, table_id);
  return StrFormat(
      "%016llx-%016llx-%016llx-%016llx-%016llx",
      static_cast<unsigned long long>(table_hash),
      static_cast<unsigned long long>(HashSelection(selection)),
      static_cast<unsigned long long>(HashViewSpecs(views)),
      static_cast<unsigned long long>(HashRegistry(registry)),
      static_cast<unsigned long long>(HashBuildOptions(options)));
}

}  // namespace vs::core
