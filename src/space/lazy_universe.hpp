#pragma once
// Constraint-propagating enumeration of the valid search space (ISSUE 7,
// docs/search-space.md). The Table I space is a ~10^13 raw cartesian product
// of which only ~1e-4 survives the ConstraintChecker; rejection sampling a
// 20k universe throws the structure away. This module decomposes the space
// exactly:
//
//   region  = one assignment of every bool/enum/temporal parameter in its
//             canonical encoding (useShared x useConstant x useStreaming x
//             SD x useRetiming x usePrefetching x TF), with per-value
//             admissibility masks for the free numeric parameters;
//   block   = region x thread-block shape (TBx, TBy, TBz);
//   leaves  = the remaining (SB, CM, BM, UF) choices inside one block.
//
// Within a region every constraint's left-hand side is monotone
// nondecreasing in every free numeric parameter (see count_block), which
// makes three things exact rather than heuristic:
//   - count_block / count_region: a dynamic program over merge/unroll
//     exponents that counts valid settings without enumerating them;
//   - BlockCursor: a resumable depth-first walk that prunes a whole subtree
//     the moment its pointwise-minimal completion leaves the block's
//     resource frontier (the DP's own thresholds), and that seeks to any
//     rank by counting subtrees instead of walking them;
//   - LazyUniverse: deterministic, memory-bounded, chunked enumeration of
//     the full valid space (plus an exact-count-proportioned spread sample),
//     bit-identical across ThreadPool worker counts.
//
// The analysis layer (analysis/propagate.hpp) builds proofs on top of these
// regions; this file stays self-sufficient inside cstuner_space.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "space/search_space.hpp"

namespace cstuner::space {

/// One case-split region: every bool/enum/temporal parameter pinned to a
/// concrete value, numeric parameters free under a per-value bitmask over
/// the parameter's sorted value list (bit i = values[i] admitted).
struct EnumRegion {
  /// pinned[p] == 0 means parameter p is free in this region.
  std::array<std::int64_t, kParamCount> pinned{};
  /// Free parameters only; pinned parameters carry mask 0.
  std::array<std::uint64_t, kParamCount> masks{};
  bool streaming = false;
  /// 0-based streaming dimension; -1 when not streaming.
  int sd = -1;

  bool is_free(ParamId id) const {
    return pinned[static_cast<std::size_t>(id)] == 0;
  }
  /// "useShared=on useStreaming=on SD=2 ..." for diagnostics.
  std::string label() const;
};

/// All canonical regions of the space in deterministic order (nested loops
/// over the pinned parameters in ParamId order). Combinations the canonical
/// encoding forbids — SD/SB/prefetching without streaming (rule 2), TF > 1
/// without a single-grid streaming pipeline (rule 10) — are not generated;
/// their settings are invalid by construction. Requires every parameter
/// cardinality <= 64 (checked).
std::vector<EnumRegion> build_regions(const SearchSpace& space);

/// Exact number of valid settings in `region` with the thread-block shape
/// fixed to `tb`. Exact because, with the flags pinned, registers and shared
/// memory depend on the free parameters only through the per-dimension
/// merge products and the total unroll product — both powers of two — so
/// the resource rules reduce to thresholds over exponent sums that a small
/// dynamic program evaluates through estimate_resources_core itself.
std::uint64_t count_block(const SearchSpace& space, const EnumRegion& region,
                          const std::array<std::int64_t, 3>& tb);

/// Exact number of valid settings in `region` (all thread-block shapes).
std::uint64_t count_region(const SearchSpace& space, const EnumRegion& region);

/// count_block's dynamic program and leaf verdict for one block
/// (lazy_universe.cpp).
class BlockCounter;

/// Resumable depth-first enumeration of one block's valid settings in a
/// fixed order: SB, then per dimension d in x,y,z order (CMd, BMd, UFd);
/// streaming-dimension factors are pinned at 1 and UF_sd ranges under SB.
/// Candidate lists apply rules 1-7 and 10 (the region pins the flags, the
/// block the thread-block shape; coverage, UF <= CM*BM and UF_sd <= SB cap
/// each list). Each partial assignment, deeper parameters at 1, is then
/// judged by the block's frontier, not by ConstraintChecker: registers
/// read the free parameters only through the total merge and unroll
/// exponents, and shared memory only through the product of the tile
/// extents, so rules 8, 8b and 9 hold iff max_ue[me] >= ue and that product
/// is at most ext_cap — the thresholds count_block's DP counts with, built
/// through estimate_resources_core itself. Monotonicity makes the verdict
/// both a sound subtree prune and, at the leaf, the full validity verdict.
class BlockCursor {
 public:
  BlockCursor(const SearchSpace& space, const EnumRegion& region,
              const std::array<std::int64_t, 3>& tb);
  ~BlockCursor();

  /// Advances to the next valid setting; false when the block is exhausted.
  bool next(Setting& out);

  /// Positions the cursor on the block's setting of 0-based `rank` in
  /// next() order and writes it to `out`; next() then continues at
  /// rank + 1. Unranks instead of walking: level by level, each candidate
  /// value's subtree is counted exactly (count_block's DP with that
  /// parameter's mask narrowed to the one value) and skipped while the
  /// rank is at least its size, so the cost is O(levels * values) counts,
  /// independent of rank. False (and exhausted) when rank >= the count.
  /// The counts and next()'s verdicts come from one BlockCounter, built
  /// with the cursor.
  bool seek(std::uint64_t rank, Setting& out);

  /// Calls fn(partial, admitted) on every assignment next() judges, with
  /// the deeper parameters at 1. For tests that check the frontier verdict
  /// against ConstraintChecker; the verdict does not depend on it.
  void observe_trials(std::function<void(const Setting&, bool)> fn);

 private:
  struct Level {
    ParamId id = kSB;
    std::vector<std::int64_t> candidates;
    std::size_t pos = 0;
  };

  void build_candidates(std::size_t level);

  const SearchSpace* space_;
  const EnumRegion* region_;
  std::unique_ptr<BlockCounter> counter_;
  /// True once seek() has narrowed counter_'s masks.
  bool narrowed_ = false;
  Setting current_;
  std::vector<Level> levels_;
  /// Deepest assigned level; -1 before the first next() call.
  int depth_ = -1;
  bool done_ = false;
  std::function<void(const Setting&, bool)> observer_;
};

struct LazyUniverseOptions {
  /// Maximum settings handed to one for_each_chunk callback (and appended
  /// per next_chunk call).
  std::size_t chunk = 4096;
  /// Maximum settings buffered while blocks are enumerated in parallel;
  /// bounds peak memory of for_each_chunk and spread_sample.
  std::size_t window = 1 << 16;
  /// Largest spacing between spread_sample's picks inside one block. A
  /// block's q picks visit at most q*stride leaves (one unrank, then the
  /// comb's steps), so one sample visits at most k*max_spread_stride.
  std::uint64_t max_spread_stride = 64;
};

/// Deterministic chunked enumerator over the whole valid space. Blocks are
/// ordered region-major, thread-block shapes lexicographic by value index;
/// leaves follow BlockCursor order. The order — and therefore every chunk,
/// sample, and digest derived from it — is a pure function of the space,
/// independent of worker count (tests/test_lazy_universe.cpp).
class LazyUniverse {
 public:
  /// Builds the block decomposition and exact per-block counts (the count
  /// DP runs across `pool` when provided; counts are per-block pure
  /// functions, so parallelism cannot change them).
  explicit LazyUniverse(const SearchSpace& space,
                        LazyUniverseOptions options = {},
                        ThreadPool* pool = nullptr);

  LazyUniverse(const LazyUniverse&) = delete;
  LazyUniverse& operator=(const LazyUniverse&) = delete;

  /// Exact valid-setting count (sum of the per-block counts).
  std::uint64_t valid_count() const { return total_count_; }
  std::size_t block_count() const { return blocks_.size(); }
  const std::vector<EnumRegion>& regions() const { return regions_; }
  /// Exact count of one region, summed from its blocks.
  std::uint64_t region_count(std::size_t region_index) const;

  /// Appends up to options.chunk settings in enumeration order; false once
  /// the space is exhausted (serial cursor, O(chunk) extra memory).
  bool next_chunk(std::vector<Setting>& out);
  /// Rewinds the serial cursor to the first setting.
  void reset();

  /// Streams every valid setting, in order, as chunks of at most
  /// options.chunk settings. Blocks are enumerated across the pool in
  /// windows of ~options.window buffered settings and committed in block
  /// order, so the callback sequence is bit-identical for any worker count.
  void for_each_chunk(
      const std::function<void(const std::vector<Setting>&)>& fn);

  /// Materializes the first min(limit, valid_count()) settings in order.
  std::vector<Setting> take_all(
      std::uint64_t limit = std::numeric_limits<std::uint64_t>::max());

  /// Deterministic spread sample of min(k, valid_count()) settings:
  /// per-block quotas proportional to the exact counts (largest-remainder
  /// rounding, ties to the lower block index), then a comb of q picks
  /// `stride` = min(count/q, max_spread_stride) apart inside each block. No
  /// RNG involved; bit-identical across worker counts.
  ///
  /// `salt` sets each comb's phase, the rank of its first pick, to
  /// hash(salt, block) modulo the slack the comb is free to move in, so
  /// callers with a seed contract (SearchSpace::sample_universe) get
  /// seed-dependent — but equally spread, still RNG-free — samples.
  /// salt == 0 keeps every phase at zero, the digest-stable order the
  /// space-construction gate pins. The first pick is located by
  /// BlockCursor::seek (an exact unrank, not a walk from the block start)
  /// and the rest by stepping the cursor, so one call visits at most
  /// k * max_spread_stride leaves, whatever the salt (obs counter
  /// `space.spread_leaves_walked`).
  std::vector<Setting> spread_sample(std::size_t k, std::uint64_t salt = 0);

 private:
  struct BlockRef {
    std::uint32_t region = 0;
    std::array<std::int64_t, 3> tb{1, 1, 1};
    std::uint64_t count = 0;
  };

  void build_blocks();
  /// Enumerates blocks [begin, end) into per-block vectors across the pool.
  std::vector<std::vector<Setting>> enumerate_blocks(std::size_t begin,
                                                     std::size_t end);

  const SearchSpace& space_;
  LazyUniverseOptions options_;
  ThreadPool* pool_;
  std::vector<EnumRegion> regions_;
  std::vector<BlockRef> blocks_;
  std::uint64_t total_count_ = 0;

  // Serial cursor state for next_chunk().
  std::size_t cursor_block_ = 0;
  std::optional<BlockCursor> cursor_;
};

}  // namespace cstuner::space
