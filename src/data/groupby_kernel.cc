#include "data/groupby_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "common/hash.h"
#include "testing/fault_injection.h"

namespace vs::data {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rows decoded per staging block: the bin-index buffer stays L1-resident
/// while amortizing the per-measure dispatch branch over the block.
constexpr size_t kBlockRows = 4096;

/// Below this many rows per worker, extra threads only add merge cost.
constexpr size_t kMinRowsPerWorker = 16 * 1024;

/// Accumulator replication factor.  Low-cardinality dimensions funnel most
/// rows into a handful of popular bins, so a single grid serializes on the
/// floating-point add latency of the hot bin (`sums[b] += v` is a
/// loop-carried dependency).  Four independent lanes (row i feeds lane
/// i mod 4) turn that chain into four, merged once per range in fixed lane
/// order.  Counts/mins/maxs are unchanged by the split (integer adds and
/// min/max are associative); sums/sumsqs are reassociated, which is why
/// the kernel contract promises them within tolerance, not bit-identity.
constexpr size_t kAccumLanes = 4;

/// Lane replication is only worth its memory (lanes x bins x 40 B per
/// measure) while the grids stay cache-resident; above this bin count rows
/// spread out enough that chain collisions are rare anyway, and the 4x
/// footprint starts costing more in cache misses than it saves in chain
/// latency (measured: a 1024-bin dimension regressed ~2x at 4 lanes).
constexpr int32_t kLaneMaxBins = 256;

/// Below this many rows the chain-latency win cannot amortize the 4x grid
/// setup/merge, so the kernel keeps the serial accumulation order — which
/// also keeps small-table results (all the committed fixtures) bit-equal
/// to the scalar oracle, not merely within tolerance.
constexpr size_t kLaneMinRows = size_t{1} << 16;

}  // namespace

void KernelGrid::Reset(size_t num_bins) {
  counts.assign(num_bins, 0);
  sums.assign(num_bins, 0.0);
  sumsqs.assign(num_bins, 0.0);
  mins.assign(num_bins, kInf);
  maxs.assign(num_bins, -kInf);
}

size_t KernelGrid::AppendSlot() {
  counts.push_back(0);
  sums.push_back(0.0);
  sumsqs.push_back(0.0);
  mins.push_back(kInf);
  maxs.push_back(-kInf);
  return counts.size() - 1;
}

void KernelGrid::MergeFrom(const KernelGrid& other) {
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] += other.counts[b];
    sums[b] += other.sums[b];
    sumsqs[b] += other.sumsqs[b];
    if (other.mins[b] < mins[b]) mins[b] = other.mins[b];
    if (other.maxs[b] > maxs[b]) maxs[b] = other.maxs[b];
  }
}

namespace {

/// One measure column, resolved to its concrete type once per call.
struct TypedMeasure {
  const Int64Column* i64 = nullptr;
  const DoubleColumn* f64 = nullptr;
  bool has_nulls = false;
};

// ---------------------------------------------------------------------------
// Stage 1: decode the dimension of one block into bin indices (-1 = skip).
// ---------------------------------------------------------------------------

void StageCategorical(const int32_t* codes, uint32_t base,
                      const uint32_t* rows, size_t n, int32_t* bins) {
  // kNullCode is -1, the kernel's skip sentinel — codes pass through.
  if (rows == nullptr) {
    const int32_t* src = codes + base;
    for (size_t i = 0; i < n; ++i) bins[i] = src[i];
  } else {
    for (size_t i = 0; i < n; ++i) bins[i] = codes[rows[i]];
  }
}

template <typename ColT, bool kHasNulls, bool kContig>
void StageNumeric(const ColT* col, const KernelBinDef& def, int32_t nb,
                  uint32_t base, const uint32_t* rows, size_t n,
                  int32_t* bins) {
  const auto* data = col->data().data();
  const double lo = def.lo;
  const double width = def.width;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = kContig ? base + i : rows[i];
    if (kHasNulls && col->IsNull(row)) {
      bins[i] = -1;
      continue;
    }
    // The exact arithmetic of the scalar path: bin assignment must be
    // bit-identical (no multiply-by-reciprocal, which can flip boundary
    // values into the neighboring bin).
    const double v = static_cast<double>(data[row]);
    int32_t b = static_cast<int32_t>((v - lo) / width);
    if (b < 0) b = 0;
    if (b >= nb) b = nb - 1;  // the full-table max lands in the last bin
    bins[i] = b;
  }
}

// ---------------------------------------------------------------------------
// Stage 2: fold one measure over a staged block into an SoA grid.  The
// same loop serves the dense path (bins index the full grid) and the hash
// path (bins have been translated to compact slots).
// ---------------------------------------------------------------------------

/// Raw accumulator pointers of one lane grid — keeps the hot loop free of
/// vector bookkeeping.
struct LanePtrs {
  int64_t* counts;
  double* sums;
  double* sumsqs;
  double* mins;
  double* maxs;
};

LanePtrs PtrsOf(KernelGrid& grid) {
  return {grid.counts.data(), grid.sums.data(), grid.sumsqs.data(),
          grid.mins.data(), grid.maxs.data()};
}

/// kNumLanes = 1 reproduces the scalar fold order bin-for-bin; 4 rotates
/// rows across replicated accumulator segments (slot b of lane l lives at
/// index b + l*stride of one wide grid) so popular bins carry four
/// independent floating-point dependency chains instead of one.  The
/// single-wide-grid layout keeps the hot loop at five base pointers plus
/// small integer offsets — separate per-lane grids would need 20 live
/// pointers and spill.
template <typename ColT, bool kHasNulls, bool kContig, size_t kNumLanes>
void AccumulateBlock(const ColT* col, const int32_t* bins, uint32_t base,
                     const uint32_t* rows, size_t n, const LanePtrs& g,
                     size_t stride) {
  const auto* data = col->data().data();
  size_t lane_off[kNumLanes];
  for (size_t l = 0; l < kNumLanes; ++l) lane_off[l] = l * stride;
  size_t i = 0;
  for (; i + kNumLanes <= n; i += kNumLanes) {
    // Constant-bound inner loop: unrolled with one statically-known lane
    // per slot.
    for (size_t l = 0; l < kNumLanes; ++l) {
      const size_t k = i + l;
      const int32_t b = bins[k];
      if (b < 0) continue;
      const size_t row = kContig ? base + k : rows[k];
      if (kHasNulls && col->IsNull(row)) continue;
      const double v = static_cast<double>(data[row]);
      const size_t idx = static_cast<size_t>(b) + lane_off[l];
      ++g.counts[idx];
      g.sums[idx] += v;
      g.sumsqs[idx] += v * v;
      if (v < g.mins[idx]) g.mins[idx] = v;
      if (v > g.maxs[idx]) g.maxs[idx] = v;
    }
  }
  for (; i < n; ++i) {
    const int32_t b = bins[i];
    if (b < 0) continue;
    const size_t row = kContig ? base + i : rows[i];
    if (kHasNulls && col->IsNull(row)) continue;
    const double v = static_cast<double>(data[row]);
    const size_t idx = static_cast<size_t>(b) + lane_off[i % kNumLanes];
    ++g.counts[idx];
    g.sums[idx] += v;
    g.sumsqs[idx] += v * v;
    if (v < g.mins[idx]) g.mins[idx] = v;
    if (v > g.maxs[idx]) g.maxs[idx] = v;
  }
}

template <bool kContig, size_t kNumLanes>
void AccumulateMeasure(const TypedMeasure& measure, const int32_t* bins,
                       uint32_t base, const uint32_t* rows, size_t n,
                       const LanePtrs& grid, size_t stride) {
  if (measure.i64 != nullptr) {
    if (measure.has_nulls) {
      AccumulateBlock<Int64Column, true, kContig, kNumLanes>(
          measure.i64, bins, base, rows, n, grid, stride);
    } else {
      AccumulateBlock<Int64Column, false, kContig, kNumLanes>(
          measure.i64, bins, base, rows, n, grid, stride);
    }
  } else {
    if (measure.has_nulls) {
      AccumulateBlock<DoubleColumn, true, kContig, kNumLanes>(
          measure.f64, bins, base, rows, n, grid, stride);
    } else {
      AccumulateBlock<DoubleColumn, false, kContig, kNumLanes>(
          measure.f64, bins, base, rows, n, grid, stride);
    }
  }
}

// ---------------------------------------------------------------------------
// Hash grouping: FNV-1a open-addressing map from bin id to compact slot.
// ---------------------------------------------------------------------------

uint64_t Fnv1aBin(int32_t bin) {
  const auto v = static_cast<uint32_t>(bin);
  const unsigned char bytes[4] = {
      static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16),
      static_cast<unsigned char>(v >> 24)};
  return Fnv1a64(bytes, sizeof(bytes), kFnv1a64LegacySeed);
}

/// Maps bin ids to dense slot indices; slots are appended to every
/// measure's compact grid on first sight of a bin.
class BinSlotTable {
 public:
  explicit BinSlotTable(std::vector<KernelGrid>* grids) : grids_(grids) {
    table_.assign(kInitialBuckets, -1);
  }

  int32_t SlotFor(int32_t bin) {
    size_t idx = Fnv1aBin(bin) & (table_.size() - 1);
    while (true) {
      const int32_t slot = table_[idx];
      if (slot < 0) return Insert(idx, bin);
      if (slot_bins_[static_cast<size_t>(slot)] == bin) return slot;
      idx = (idx + 1) & (table_.size() - 1);
    }
  }

  const std::vector<int32_t>& slot_bins() const { return slot_bins_; }

 private:
  static constexpr size_t kInitialBuckets = 1024;

  int32_t Insert(size_t idx, int32_t bin) {
    const auto slot = static_cast<int32_t>(slot_bins_.size());
    slot_bins_.push_back(bin);
    for (KernelGrid& grid : *grids_) grid.AppendSlot();
    table_[idx] = slot;
    // Grow at 70% load so probe chains stay short.
    if (slot_bins_.size() * 10 > table_.size() * 7) Rehash();
    return slot;
  }

  void Rehash() {
    std::vector<int32_t> grown(table_.size() * 2, -1);
    for (size_t s = 0; s < slot_bins_.size(); ++s) {
      size_t idx = Fnv1aBin(slot_bins_[s]) & (grown.size() - 1);
      while (grown[idx] >= 0) idx = (idx + 1) & (grown.size() - 1);
      grown[idx] = static_cast<int32_t>(s);
    }
    table_ = std::move(grown);
  }

  std::vector<int32_t> table_;      ///< bucket -> slot index, -1 empty
  std::vector<int32_t> slot_bins_;  ///< slot -> bin id
  std::vector<KernelGrid>* grids_;  ///< compact per-measure accumulators
};

// ---------------------------------------------------------------------------
// Per-range partial aggregation.
// ---------------------------------------------------------------------------

/// One worker's private accumulation state.  Dense mode: full-size grids.
/// Hash mode: a slot table plus compact grids sized by distinct bins seen.
/// When lane replication is on (dense, small bin count), grids[m] is a
/// *wide* grid of lane_stride * kAccumLanes slots; ReduceLanes folds it
/// back to lane_stride slots before any downstream merge.
struct Partial {
  std::vector<KernelGrid> grids;
  size_t lane_stride = 0;               ///< 0 = single-lane accumulation
  std::unique_ptr<BinSlotTable> slots;  // null = dense mode
};

/// Folds the replicated lane segments of each wide grid back into segment
/// 0, in fixed lane order so the result is deterministic, then truncates
/// the grid to its final bin count.
void ReduceLanes(Partial& partial) {
  if (partial.lane_stride == 0) return;
  const size_t nb = partial.lane_stride;
  for (KernelGrid& g : partial.grids) {
    for (size_t l = 1; l < kAccumLanes; ++l) {
      const size_t off = l * nb;
      for (size_t b = 0; b < nb; ++b) {
        g.counts[b] += g.counts[off + b];
        g.sums[b] += g.sums[off + b];
        g.sumsqs[b] += g.sumsqs[off + b];
        if (g.mins[off + b] < g.mins[b]) g.mins[b] = g.mins[off + b];
        if (g.maxs[off + b] > g.maxs[b]) g.maxs[b] = g.maxs[off + b];
      }
    }
    g.counts.resize(nb);
    g.sums.resize(nb);
    g.sumsqs.resize(nb);
    g.mins.resize(nb);
    g.maxs.resize(nb);
  }
  partial.lane_stride = 0;
}

/// Everything the block loop needs, shared (read-only) by all workers.
struct KernelInput {
  const CategoricalColumn* cat_dim = nullptr;
  const Int64Column* i64_dim = nullptr;
  const DoubleColumn* f64_dim = nullptr;
  bool dim_has_nulls = false;
  KernelBinDef bin_def;
  int32_t num_bins = 0;
  std::vector<TypedMeasure> measures;
  const uint32_t* sel = nullptr;  ///< selection data; nullptr = contiguous
};

void StageDimension(const KernelInput& in, uint32_t base,
                    const uint32_t* rows, size_t n, int32_t* bins) {
  if (in.cat_dim != nullptr) {
    StageCategorical(in.cat_dim->codes().data(), base, rows, n, bins);
  } else if (in.i64_dim != nullptr) {
    if (rows == nullptr) {
      if (in.dim_has_nulls) {
        StageNumeric<Int64Column, true, true>(in.i64_dim, in.bin_def,
                                              in.num_bins, base, rows, n,
                                              bins);
      } else {
        StageNumeric<Int64Column, false, true>(in.i64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      }
    } else {
      if (in.dim_has_nulls) {
        StageNumeric<Int64Column, true, false>(in.i64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      } else {
        StageNumeric<Int64Column, false, false>(in.i64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      }
    }
  } else {
    if (rows == nullptr) {
      if (in.dim_has_nulls) {
        StageNumeric<DoubleColumn, true, true>(in.f64_dim, in.bin_def,
                                               in.num_bins, base, rows, n,
                                               bins);
      } else {
        StageNumeric<DoubleColumn, false, true>(in.f64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      }
    } else {
      if (in.dim_has_nulls) {
        StageNumeric<DoubleColumn, true, false>(in.f64_dim, in.bin_def,
                                                in.num_bins, base, rows, n,
                                                bins);
      } else {
        StageNumeric<DoubleColumn, false, false>(in.f64_dim, in.bin_def,
                                                 in.num_bins, base, rows, n,
                                                 bins);
      }
    }
  }
}

/// Aggregates the domain positions [begin, end) — row ids when scanning
/// the whole table, selection indices otherwise — into \p partial.
void ProcessRange(const KernelInput& in, size_t begin, size_t end,
                  Partial& partial) {
  int32_t bins[kBlockRows];
  int32_t slot_ids[kBlockRows];
  const size_t stride = partial.lane_stride;
  // Contiguous categorical scans on the dense path read the code array
  // directly — codes already are bin indices (kNullCode = -1 = skip), so
  // the staging copy would be pure overhead.
  const bool direct_codes =
      in.cat_dim != nullptr && in.sel == nullptr && partial.slots == nullptr;
  for (size_t at = begin; at < end; at += kBlockRows) {
    const size_t n = std::min(kBlockRows, end - at);
    const auto base = static_cast<uint32_t>(at);
    const uint32_t* rows = in.sel == nullptr ? nullptr : in.sel + at;
    const int32_t* indices;
    if (direct_codes) {
      indices = in.cat_dim->codes().data() + at;
    } else {
      StageDimension(in, base, rows, n, bins);
      indices = bins;
      if (partial.slots != nullptr) {
        for (size_t i = 0; i < n; ++i) {
          slot_ids[i] = bins[i] < 0 ? -1 : partial.slots->SlotFor(bins[i]);
        }
        indices = slot_ids;
      }
    }
    for (size_t m = 0; m < in.measures.size(); ++m) {
      const LanePtrs grid = PtrsOf(partial.grids[m]);
      if (rows == nullptr) {
        if (stride != 0) {
          AccumulateMeasure<true, kAccumLanes>(in.measures[m], indices, base,
                                               rows, n, grid, stride);
        } else {
          AccumulateMeasure<true, 1>(in.measures[m], indices, base, rows, n,
                                     grid, 0);
        }
      } else {
        if (stride != 0) {
          AccumulateMeasure<false, kAccumLanes>(in.measures[m], indices, base,
                                                rows, n, grid, stride);
        } else {
          AccumulateMeasure<false, 1>(in.measures[m], indices, base, rows, n,
                                      grid, 0);
        }
      }
    }
  }
  ReduceLanes(partial);
}

/// Scatters a compact hash partial into the final dense grids.
void MergeCompact(const Partial& partial, std::vector<KernelGrid>& merged) {
  const std::vector<int32_t>& slot_bins = partial.slots->slot_bins();
  for (size_t m = 0; m < merged.size(); ++m) {
    const KernelGrid& compact = partial.grids[m];
    KernelGrid& out = merged[m];
    for (size_t s = 0; s < slot_bins.size(); ++s) {
      const auto b = static_cast<size_t>(slot_bins[s]);
      out.counts[b] += compact.counts[s];
      out.sums[b] += compact.sums[s];
      out.sumsqs[b] += compact.sumsqs[s];
      if (compact.mins[s] < out.mins[b]) out.mins[b] = compact.mins[s];
      if (compact.maxs[s] > out.maxs[b]) out.maxs[b] = compact.maxs[s];
    }
  }
}

}  // namespace

vs::Result<std::vector<KernelGrid>> GroupByKernelRun(
    const Column* dimension, const KernelBinDef* numeric_bins,
    int32_t num_bins, const std::vector<const Column*>& measures,
    const SelectionVector* selection, size_t table_rows,
    const GroupByKernelOptions& options) {
  if (num_bins < 0) {
    return vs::Status::InvalidArgument("kernel: negative bin count");
  }

  KernelInput in;
  in.num_bins = num_bins;
  in.cat_dim = dynamic_cast<const CategoricalColumn*>(dimension);
  if (in.cat_dim == nullptr) {
    if (numeric_bins == nullptr || numeric_bins->width <= 0.0) {
      return vs::Status::InvalidArgument(
          "kernel: numeric dimension requires a positive bin width");
    }
    in.bin_def = *numeric_bins;
    in.i64_dim = dynamic_cast<const Int64Column*>(dimension);
    in.f64_dim = dynamic_cast<const DoubleColumn*>(dimension);
    if (in.i64_dim == nullptr && in.f64_dim == nullptr) {
      return vs::Status::InvalidArgument(
          "kernel: dimension must be categorical or numeric");
    }
    in.dim_has_nulls = dimension->null_count() > 0;
  }

  in.measures.reserve(measures.size());
  for (const Column* column : measures) {
    TypedMeasure measure;
    measure.i64 = dynamic_cast<const Int64Column*>(column);
    measure.f64 = dynamic_cast<const DoubleColumn*>(column);
    if (measure.i64 == nullptr && measure.f64 == nullptr) {
      return vs::Status::InvalidArgument(
          "kernel: measures must be int64 or double columns");
    }
    measure.has_nulls = column->null_count() > 0;
    in.measures.push_back(measure);
  }

  if (selection != nullptr) {
    for (uint32_t r : *selection) {
      if (r >= table_rows) {
        return vs::Status::OutOfRange("selection row id out of range");
      }
    }
    in.sel = selection->data();
  }
  const size_t domain = selection != nullptr ? selection->size() : table_rows;

  const bool dense = num_bins <= options.dense_bins_max;
  std::vector<KernelGrid> merged(measures.size());
  for (KernelGrid& grid : merged) grid.Reset(static_cast<size_t>(num_bins));

  size_t workers = options.num_threads <= 1 ? 1 : options.num_threads;
  if (workers > 1) {
    // Don't split below the merge break-even point; the count stays a pure
    // function of (domain, options) so results are reproducible.
    workers = std::min(workers, std::max<size_t>(1, domain / kMinRowsPerWorker));
  }

  const bool lanes =
      dense && num_bins <= kLaneMaxBins && domain >= kLaneMinRows;
  auto make_partial = [&](bool owns_grid) {
    Partial partial;
    if (dense) {
      partial.grids.resize(measures.size());
      if (lanes) {
        partial.lane_stride = static_cast<size_t>(num_bins);
        for (KernelGrid& grid : partial.grids) {
          grid.Reset(static_cast<size_t>(num_bins) * kAccumLanes);
        }
      } else if (owns_grid) {
        for (KernelGrid& grid : partial.grids) {
          grid.Reset(static_cast<size_t>(num_bins));
        }
      }
    } else {
      partial.grids.resize(measures.size());
      partial.slots = std::make_unique<BinSlotTable>(&partial.grids);
    }
    return partial;
  };

  if (workers == 1) {
    Partial partial = make_partial(/*owns_grid=*/false);
    if (dense && !lanes) partial.grids = std::move(merged);
    ProcessRange(in, 0, domain, partial);
    if (VS_FAULT("kernel.partial_merge_fail")) {
      return vs::Status::Internal(
          "injected failure merging group-by partial aggregates");
    }
    if (dense) return std::move(partial.grids);
    MergeCompact(partial, merged);
    return merged;
  }

  // Contiguous range per worker, merged in range order below: for a fixed
  // worker count the result is deterministic regardless of scheduling.
  std::vector<Partial> partials;
  partials.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    partials.push_back(make_partial(/*owns_grid=*/true));
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const size_t per_worker = (domain + workers - 1) / workers;
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * per_worker;
    const size_t end = std::min(domain, begin + per_worker);
    if (begin >= end) break;
    threads.emplace_back(
        [&in, &partials, w, begin, end] { ProcessRange(in, begin, end, partials[w]); });
  }
  for (std::thread& thread : threads) thread.join();

  if (VS_FAULT("kernel.partial_merge_fail")) {
    return vs::Status::Internal(
        "injected failure merging group-by partial aggregates");
  }
  for (const Partial& partial : partials) {
    if (partial.slots != nullptr) {
      MergeCompact(partial, merged);
    } else {
      for (size_t m = 0; m < merged.size(); ++m) {
        merged[m].MergeFrom(partial.grids[m]);
      }
    }
  }
  return merged;
}

namespace {

template <typename ColT, bool kHasNulls>
std::pair<double, double> TypedMinMax(const ColT* col) {
  const auto* data = col->data().data();
  const size_t n = col->size();
  double lo[kAccumLanes];
  double hi[kAccumLanes];
  for (size_t l = 0; l < kAccumLanes; ++l) {
    lo[l] = kInf;
    hi[l] = -kInf;
  }
  size_t i = 0;
  for (; i + kAccumLanes <= n; i += kAccumLanes) {
    for (size_t l = 0; l < kAccumLanes; ++l) {
      const size_t row = i + l;
      if (kHasNulls && col->IsNull(row)) continue;
      const double v = static_cast<double>(data[row]);
      if (v < lo[l]) lo[l] = v;
      if (v > hi[l]) hi[l] = v;
    }
  }
  for (; i < n; ++i) {
    if (kHasNulls && col->IsNull(i)) continue;
    const double v = static_cast<double>(data[i]);
    if (v < lo[0]) lo[0] = v;
    if (v > hi[0]) hi[0] = v;
  }
  for (size_t l = 1; l < kAccumLanes; ++l) {
    if (lo[l] < lo[0]) lo[0] = lo[l];
    if (hi[l] > hi[0]) hi[0] = hi[l];
  }
  return {lo[0], hi[0]};
}

}  // namespace

vs::Result<std::pair<double, double>> KernelColumnRange(const Column* column) {
  const bool has_nulls = column->null_count() > 0;
  if (const auto* i64 = dynamic_cast<const Int64Column*>(column)) {
    return has_nulls ? TypedMinMax<Int64Column, true>(i64)
                     : TypedMinMax<Int64Column, false>(i64);
  }
  if (const auto* f64 = dynamic_cast<const DoubleColumn*>(column)) {
    return has_nulls ? TypedMinMax<DoubleColumn, true>(f64)
                     : TypedMinMax<DoubleColumn, false>(f64);
  }
  return vs::Status::InvalidArgument(
      "kernel: range scan requires an int64 or double column");
}

}  // namespace vs::data
