#include "space/lazy_universe.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace cstuner::space {

namespace {

constexpr std::size_t idx(ParamId id) { return static_cast<std::size_t>(id); }

constexpr ParamId kTbIds[3] = {kTBx, kTBy, kTBz};
constexpr ParamId kCmIds[3] = {kCMx, kCMy, kCMz};
constexpr ParamId kBmIds[3] = {kBMx, kBMy, kBMz};
constexpr ParamId kUfIds[3] = {kUFx, kUFy, kUFz};

std::uint64_t full_mask(const Parameter& param) {
  const std::size_t n = param.values.size();
  CSTUNER_CHECK_MSG(n <= 64,
                    "symbolic space engine needs <= 64 values per parameter");
  return n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

std::vector<std::int64_t> masked_values(const Parameter& param,
                                        std::uint64_t mask) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < param.values.size(); ++i) {
    if (((mask >> i) & 1U) != 0) out.push_back(param.values[i]);
  }
  return out;
}

std::int64_t grid_extent(const stencil::StencilSpec& spec, int dim) {
  return static_cast<std::int64_t>(spec.grid[static_cast<std::size_t>(dim)]);
}

/// Polynomial over the total unroll exponent: c[e] = number of parameter
/// combinations whose unroll factors multiply to 2^e.
struct UePoly {
  std::vector<std::uint64_t> c;

  void bump(std::size_t exponent, std::uint64_t by) {
    if (c.size() <= exponent) c.resize(exponent + 1, 0);
    c[exponent] += by;
  }
  UePoly times(const UePoly& other) const {
    UePoly out;
    if (c.empty() || other.c.empty()) return out;
    out.c.assign(c.size() + other.c.size() - 1, 0);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c[i] == 0) continue;
      for (std::size_t j = 0; j < other.c.size(); ++j) {
        out.c[i + j] += c[i] * other.c[j];
      }
    }
    return out;
  }
  std::uint64_t sum_up_to(int max_exponent) const {
    if (max_exponent < 0) return 0;
    std::uint64_t total = 0;
    const std::size_t hi =
        std::min(c.size(), static_cast<std::size_t>(max_exponent) + 1);
    for (std::size_t e = 0; e < hi; ++e) total += c[e];
    return total;
  }
  int max_exponent() const { return static_cast<int>(c.size()) - 1; }
};

/// One admissible per-dimension merge exponent: CM*BM = 2^me, with the
/// shared-memory tile extent that exponent implies and the distribution of
/// unroll exponents available under it.
struct MeEntry {
  int me = 0;
  std::int64_t ext = 0;  ///< TB*2^me + 2*order (rule-9 tile extent)
  UePoly ue;
};

struct DimTable {
  std::vector<MeEntry> entries;  ///< sorted by me ascending
};

/// Joint distribution over (total merge exponent, total unroll exponent).
struct MeUeTable {
  /// c[me][ue]; empty outer vector = zero function.
  std::vector<std::vector<std::uint64_t>> c;

  static MeUeTable unit() {
    MeUeTable t;
    t.c.assign(1, std::vector<std::uint64_t>{1});
    return t;
  }
  MeUeTable times(const MeUeTable& other) const {
    MeUeTable out;
    if (c.empty() || other.c.empty()) return out;
    std::size_t ue_a = 0;
    std::size_t ue_b = 0;
    for (const auto& row : c) ue_a = std::max(ue_a, row.size());
    for (const auto& row : other.c) ue_b = std::max(ue_b, row.size());
    if (ue_a == 0 || ue_b == 0) return out;
    out.c.assign(c.size() + other.c.size() - 1,
                 std::vector<std::uint64_t>(ue_a + ue_b - 1, 0));
    for (std::size_t ma = 0; ma < c.size(); ++ma) {
      for (std::size_t ua = 0; ua < c[ma].size(); ++ua) {
        const std::uint64_t v = c[ma][ua];
        if (v == 0) continue;
        for (std::size_t mb = 0; mb < other.c.size(); ++mb) {
          for (std::size_t ub = 0; ub < other.c[mb].size(); ++ub) {
            out.c[ma + mb][ua + ub] += v * other.c[mb][ub];
          }
        }
      }
    }
    return out;
  }
};

MeUeTable table_of_dim(const DimTable& dim) {
  MeUeTable t;
  int max_me = 0;
  for (const MeEntry& e : dim.entries) max_me = std::max(max_me, e.me);
  t.c.assign(static_cast<std::size_t>(max_me) + 1, {});
  for (const MeEntry& e : dim.entries) {
    t.c[static_cast<std::size_t>(e.me)] = e.ue.c;
  }
  return t;
}

/// The context one count_block call works in: pinned flags, thread-block
/// shape, resource thresholds.
struct BlockContext {
  const SearchSpace* space = nullptr;
  const EnumRegion* region = nullptr;
  std::array<std::int64_t, 3> tb{1, 1, 1};
  std::int64_t threads = 1;
  bool shared = false;
  /// Upper bound on the product of per-dimension tile extents implied by
  /// rule 9, with the streaming-plane factor folded in; max() when shared
  /// memory is off.
  std::int64_t ext_cap = std::numeric_limits<std::int64_t>::max();

  /// Exact register verdict for total merge exponent `me` and total unroll
  /// exponent `ue` — evaluated through estimate_resources_core itself on a
  /// representative setting (the model reads the free numeric parameters
  /// only through their products), so the DP and is_valid share one body.
  bool regs_ok(int me, int ue) const {
    const auto& spec = space->spec();
    const auto& limits = space->checker().limits();
    Setting probe;
    for (std::size_t p = 0; p < kParamCount; ++p) {
      const std::int64_t pin = region->pinned[p];
      if (pin != 0) probe.set(static_cast<ParamId>(p), pin);
    }
    probe.set(kCMx, std::int64_t{1} << me);
    probe.set(kUFx, std::int64_t{1} << ue);
    const ResourceUsage usage = estimate_resources_core(
        spec.order, spec.n_inputs, spec.n_outputs, probe, limits);
    if (usage.spilled) return false;
    return block_registers(threads, usage.registers_per_thread) <=
           limits.max_registers_per_block;
  }
};

BlockContext make_context(const SearchSpace& space, const EnumRegion& region,
                          const std::array<std::int64_t, 3>& tb) {
  BlockContext ctx;
  ctx.space = &space;
  ctx.region = &region;
  ctx.tb = tb;
  ctx.threads = tb[0] * tb[1] * tb[2];
  ctx.shared = region.pinned[idx(kUseShared)] == kOn;
  if (ctx.shared) {
    const auto& spec = space.spec();
    const auto& limits = space.checker().limits();
    const std::int64_t staged =
        std::min<std::int64_t>(spec.n_inputs, 2);
    std::int64_t plane_factor = 1;
    if (region.streaming) {
      const std::int64_t prefetch =
          region.pinned[idx(kUsePrefetching)] == kOn ? 1 : 0;
      plane_factor = (2 * spec.order + 1 + prefetch) *
                     region.pinned[idx(kTemporal)];
    }
    ctx.ext_cap = limits.max_smem_per_block / (8 * staged * plane_factor);
  }
  return ctx;
}

/// Builds the (me, ext, unroll distribution) table of one non-streaming
/// dimension under the region masks, rules 3 and 7 applied exactly.
DimTable build_dim_table(const BlockContext& ctx, int dim) {
  const SearchSpace& space = *ctx.space;
  const EnumRegion& region = *ctx.region;
  const std::int64_t grid = grid_extent(space.spec(), dim);
  const int order = space.spec().order;
  const ParamId cm_id = kCmIds[dim];
  const ParamId bm_id = kBmIds[dim];
  const ParamId uf_id = kUfIds[dim];
  const auto cms =
      masked_values(space.parameter(cm_id), region.masks[idx(cm_id)]);
  const auto bms =
      masked_values(space.parameter(bm_id), region.masks[idx(bm_id)]);
  const auto ufs =
      masked_values(space.parameter(uf_id), region.masks[idx(uf_id)]);

  std::vector<UePoly> by_me;
  for (const std::int64_t cm : cms) {
    for (const std::int64_t bm : bms) {
      const std::int64_t prod = cm * bm;
      if (ctx.tb[static_cast<std::size_t>(dim)] * prod > grid) continue;
      const auto me =
          static_cast<std::size_t>(ilog2(static_cast<std::uint64_t>(prod)));
      if (by_me.size() <= me) by_me.resize(me + 1);
      for (const std::int64_t uf : ufs) {
        if (uf > prod) break;  // values ascending
        by_me[me].bump(
            static_cast<std::size_t>(ilog2(static_cast<std::uint64_t>(uf))),
            1);
      }
    }
  }
  DimTable table;
  for (std::size_t me = 0; me < by_me.size(); ++me) {
    if (by_me[me].c.empty()) continue;
    MeEntry entry;
    entry.me = static_cast<int>(me);
    entry.ext = ctx.tb[static_cast<std::size_t>(dim)] *
                    (std::int64_t{1} << me) +
                2 * order;
    entry.ue = std::move(by_me[me]);
    table.entries.push_back(std::move(entry));
  }
  return table;
}

/// Unroll distribution of the streaming pseudo-dimension: every admissible
/// (UF_sd, SB) pair under rules 5 and 6, keyed by the UF_sd exponent. The
/// streaming dimension contributes no tile extent (its shared-memory planes
/// are folded into ext_cap) and no merge exponent.
UePoly build_streaming_poly(const BlockContext& ctx) {
  const SearchSpace& space = *ctx.space;
  const EnumRegion& region = *ctx.region;
  const std::int64_t sgrid = grid_extent(space.spec(), region.sd);
  const ParamId uf_id = kUfIds[region.sd];
  const auto ufs =
      masked_values(space.parameter(uf_id), region.masks[idx(uf_id)]);
  const auto sbs =
      masked_values(space.parameter(kSB), region.masks[idx(kSB)]);
  UePoly poly;
  for (const std::int64_t uf : ufs) {
    std::uint64_t supports = 0;
    for (const std::int64_t sb : sbs) {
      if (sb > sgrid) break;  // ascending; rule 5
      if (sb >= uf) ++supports;  // rule 6
    }
    if (supports > 0) {
      poly.bump(
          static_cast<std::size_t>(ilog2(static_cast<std::uint64_t>(uf))),
          supports);
    }
  }
  return poly;
}

/// Largest admissible total unroll exponent per total merge exponent
/// (-1 = none). Registers are monotone in both exponents, so the frontier
/// is computed with a single descending scan.
std::vector<int> build_max_ue(const BlockContext& ctx, int me_max,
                              int ue_max) {
  std::vector<int> max_ue(static_cast<std::size_t>(me_max) + 1, -1);
  int cur = ue_max;
  for (int me = 0; me <= me_max; ++me) {
    while (cur >= 0 && !ctx.regs_ok(me, cur)) --cur;
    max_ue[static_cast<std::size_t>(me)] = cur;
    if (cur < 0) break;  // larger merges only get worse
  }
  return max_ue;
}

/// Shared-memory-free count: rule 9 never binds, so the per-dimension
/// tables collapse into one joint (me, ue) distribution and the register
/// frontier is summed over it.
std::uint64_t count_without_smem(const std::vector<DimTable>& dims,
                                 const UePoly& pseudo,
                                 const std::vector<int>& max_ue) {
  MeUeTable joint = MeUeTable::unit();
  for (const DimTable& dim : dims) joint = joint.times(table_of_dim(dim));
  {
    MeUeTable p;
    p.c.assign(1, pseudo.c);
    joint = joint.times(p);
  }
  std::uint64_t total = 0;
  for (std::size_t me = 0; me < joint.c.size(); ++me) {
    if (me >= max_ue.size()) break;
    const int cap = max_ue[me];
    if (cap < 0) continue;
    const auto& row = joint.c[me];
    const std::size_t hi =
        std::min(row.size(), static_cast<std::size_t>(cap) + 1);
    for (std::size_t ue = 0; ue < hi; ++ue) total += row[ue];
  }
  return total;
}

/// Shared-memory-bound count: walk the per-dimension merge exponents with
/// the running tile-extent product, pruning as soon as it exceeds ext_cap
/// (extents grow with me, so the walk breaks early on sorted entries).
std::uint64_t count_with_smem(const BlockContext& ctx,
                              const std::vector<DimTable>& dims,
                              const UePoly& pseudo,
                              const std::vector<int>& max_ue) {
  std::uint64_t total = 0;
  struct Frame {
    std::int64_t ext_prod = 1;
    int me_sum = 0;
    UePoly poly;
  };
  Frame root;
  root.poly = pseudo;
  const std::function<void(std::size_t, const Frame&)> descend =
      [&](std::size_t level, const Frame& frame) {
        if (level == dims.size()) {
          const auto me = static_cast<std::size_t>(frame.me_sum);
          if (me < max_ue.size()) total += frame.poly.sum_up_to(max_ue[me]);
          return;
        }
        for (const MeEntry& entry : dims[level].entries) {
          if (frame.ext_prod > ctx.ext_cap / entry.ext) break;  // rule 9
          Frame next;
          next.ext_prod = frame.ext_prod * entry.ext;
          next.me_sum = frame.me_sum + entry.me;
          next.poly = frame.poly.times(entry.ue);
          descend(level + 1, next);
        }
      };
  descend(0, root);
  return total;
}

/// Invokes fn(tb) for every admissible thread-block shape of the region in
/// canonical order (lexicographic by value index, rule 1 applied).
template <typename Fn>
void for_each_tb(const SearchSpace& space, const EnumRegion& region,
                 Fn&& fn) {
  const std::int64_t max_threads =
      space.checker().limits().max_threads_per_block;
  std::array<std::vector<std::int64_t>, 3> tbs;
  for (int d = 0; d < 3; ++d) {
    const ParamId id = kTbIds[d];
    const std::size_t p = idx(id);
    if (region.pinned[p] != 0) {
      tbs[static_cast<std::size_t>(d)] = {region.pinned[p]};
    } else {
      tbs[static_cast<std::size_t>(d)] =
          masked_values(space.parameter(id), region.masks[p]);
    }
  }
  for (const std::int64_t x : tbs[0]) {
    if (x > max_threads) break;
    for (const std::int64_t y : tbs[1]) {
      if (x * y > max_threads) break;
      for (const std::int64_t z : tbs[2]) {
        if (x * y * z > max_threads) break;
        fn(std::array<std::int64_t, 3>{x, y, z});
      }
    }
  }
}

}  // namespace

std::string EnumRegion::label() const {
  std::ostringstream os;
  bool first = true;
  for (const ParamId id : {kUseShared, kUseConstant, kUseStreaming, kSD,
                           kUseRetiming, kUsePrefetching, kTemporal}) {
    const std::int64_t v = pinned[idx(id)];
    if (v == 0) continue;
    if (!first) os << ' ';
    first = false;
    os << param_name(id) << '=';
    if (id == kSD || is_numeric(id)) {
      os << v;
    } else {
      os << (v == kOn ? "on" : "off");
    }
  }
  return os.str();
}

std::vector<EnumRegion> build_regions(const SearchSpace& space) {
  const auto& params = space.parameters();
  for (const Parameter& p : params) {
    (void)full_mask(p);  // cardinality precondition
  }
  const auto& spec = space.spec();
  const bool temporal_ok = spec.n_inputs == 1 && spec.n_outputs == 1;
  const std::vector<std::int64_t> one{1};
  const std::vector<std::int64_t> off{kOff};

  std::vector<EnumRegion> regions;
  const auto& shared_vals = params[idx(kUseShared)].values;
  const auto& constant_vals = params[idx(kUseConstant)].values;
  const auto& streaming_vals = params[idx(kUseStreaming)].values;
  const auto& sd_vals = params[idx(kSD)].values;
  const auto& retiming_vals = params[idx(kUseRetiming)].values;
  const auto& prefetch_vals = params[idx(kUsePrefetching)].values;
  const auto& tf_vals = params[idx(kTemporal)].values;

  for (const std::int64_t shared : shared_vals) {
    for (const std::int64_t constant : constant_vals) {
      for (const std::int64_t streaming : streaming_vals) {
        const bool is_streaming = streaming == kOn;
        // Rule 2: SD and prefetching collapse without streaming.
        for (const std::int64_t sd : is_streaming ? sd_vals : one) {
          for (const std::int64_t retiming : retiming_vals) {
            for (const std::int64_t prefetch :
                 is_streaming ? prefetch_vals : off) {
              for (const std::int64_t tf : tf_vals) {
                // Rule 10: temporal blocking needs a single-grid
                // streaming pipeline.
                if (tf > 1 && (!is_streaming || !temporal_ok)) continue;
                EnumRegion r;
                r.streaming = is_streaming;
                r.sd = is_streaming ? static_cast<int>(sd) - 1 : -1;
                auto pin = [&r](ParamId id, std::int64_t value) {
                  r.pinned[idx(id)] = value;
                };
                pin(kUseShared, shared);
                pin(kUseConstant, constant);
                pin(kUseStreaming, streaming);
                pin(kSD, sd);
                pin(kUseRetiming, retiming);
                pin(kUsePrefetching, prefetch);
                pin(kTemporal, tf);
                if (is_streaming) {
                  // Rule 4: 2.5-D blocking along the streaming dimension.
                  pin(kTbIds[r.sd], 1);
                  pin(kCmIds[r.sd], 1);
                  pin(kBmIds[r.sd], 1);
                } else {
                  pin(kSB, 1);  // rule 2
                }
                for (std::size_t p = 0; p < kParamCount; ++p) {
                  if (r.pinned[p] == 0) r.masks[p] = full_mask(params[p]);
                }
                regions.push_back(std::move(r));
              }
            }
          }
        }
      }
    }
  }
  return regions;
}

std::uint64_t count_block(const SearchSpace& space, const EnumRegion& region,
                          const std::array<std::int64_t, 3>& tb) {
  const BlockContext ctx = make_context(space, region, tb);
  if (ctx.threads > space.checker().limits().max_threads_per_block) return 0;

  std::vector<DimTable> dims;
  for (int d = 0; d < 3; ++d) {
    if (region.streaming && d == region.sd) continue;
    DimTable table = build_dim_table(ctx, d);
    if (table.entries.empty()) return 0;
    dims.push_back(std::move(table));
  }
  UePoly pseudo;
  if (region.streaming) {
    pseudo = build_streaming_poly(ctx);
    if (pseudo.c.empty()) return 0;
  } else {
    pseudo.c = {1};
  }

  int me_max = 0;
  int ue_max = pseudo.max_exponent();
  for (const DimTable& dim : dims) {
    int dim_me = 0;
    int dim_ue = 0;
    for (const MeEntry& entry : dim.entries) {
      dim_me = std::max(dim_me, entry.me);
      dim_ue = std::max(dim_ue, entry.ue.max_exponent());
    }
    me_max += dim_me;
    ue_max += dim_ue;
  }
  const std::vector<int> max_ue = build_max_ue(ctx, me_max, ue_max);

  if (!ctx.shared) return count_without_smem(dims, pseudo, max_ue);
  return count_with_smem(ctx, dims, pseudo, max_ue);
}

std::uint64_t count_region(const SearchSpace& space,
                           const EnumRegion& region) {
  std::uint64_t total = 0;
  for_each_tb(space, region, [&](const std::array<std::int64_t, 3>& tb) {
    total += count_block(space, region, tb);
  });
  return total;
}

// --- BlockCursor -----------------------------------------------------------

BlockCursor::BlockCursor(const SearchSpace& space, const EnumRegion& region,
                         const std::array<std::int64_t, 3>& tb)
    : space_(&space), region_(&region) {
  for (std::size_t p = 0; p < kParamCount; ++p) {
    if (region.pinned[p] != 0) {
      current_.set(static_cast<ParamId>(p), region.pinned[p]);
    }
  }
  for (int d = 0; d < 3; ++d) {
    current_.set(kTbIds[d], tb[static_cast<std::size_t>(d)]);
  }
  if (region.streaming) levels_.push_back({kSB, {}, 0});
  for (int d = 0; d < 3; ++d) {
    if (region.streaming && d == region.sd) {
      levels_.push_back({kUfIds[d], {}, 0});
    } else {
      levels_.push_back({kCmIds[d], {}, 0});
      levels_.push_back({kBmIds[d], {}, 0});
      levels_.push_back({kUfIds[d], {}, 0});
    }
  }
}

void BlockCursor::build_candidates(std::size_t level) {
  Level& lv = levels_[level];
  lv.candidates.clear();
  lv.pos = 0;
  const Parameter& param = space_->parameter(lv.id);
  const std::uint64_t mask = region_->masks[idx(lv.id)];
  const auto& spec = space_->spec();
  std::int64_t cap = std::numeric_limits<std::int64_t>::max();
  const int d = param_dimension(lv.id);
  if (lv.id == kSB) {
    cap = grid_extent(spec, region_->sd);  // rule 5
  } else if (lv.id == kCmIds[d]) {
    // Rule 3: TB*CM*BM <= grid, with BM still at its minimum of 1.
    cap = grid_extent(spec, d) / current_.get(kTbIds[d]);
  } else if (lv.id == kBmIds[d]) {
    cap = grid_extent(spec, d) /
          (current_.get(kTbIds[d]) * current_.get(kCmIds[d]));
  } else if (region_->streaming && d == region_->sd) {
    cap = current_.get(kSB);  // rule 6
  } else {
    cap = current_.get(kCmIds[d]) * current_.get(kBmIds[d]);  // rule 7
  }
  for (std::size_t i = 0; i < param.values.size(); ++i) {
    if (((mask >> i) & 1U) == 0) continue;
    if (param.values[i] > cap) break;  // ascending
    lv.candidates.push_back(param.values[i]);
  }
}

bool BlockCursor::next(Setting& out) {
  if (done_) return false;
  int i = depth_;
  bool descending = false;
  if (i < 0) {
    i = 0;
    build_candidates(0);
    descending = true;
  }
  while (true) {
    Level& lv = levels_[static_cast<std::size_t>(i)];
    if (!descending) ++lv.pos;
    descending = false;
    bool placed = false;
    if (lv.pos < lv.candidates.size()) {
      current_.set(lv.id, lv.candidates[lv.pos]);
      // Pointwise-minimal completion: all deeper parameters sit at 1, so a
      // violated rule here (all monotone in this parameter within the
      // region) rules out this and every larger candidate.
      if (space_->is_valid(current_)) {
        placed = true;
      } else {
        lv.pos = lv.candidates.size();
      }
    }
    if (!placed) {
      current_.set(lv.id, 1);
      if (i == 0) {
        done_ = true;
        return false;
      }
      --i;
      continue;
    }
    if (static_cast<std::size_t>(i) + 1 == levels_.size()) {
      depth_ = i;
      out = current_;
      return true;
    }
    ++i;
    build_candidates(static_cast<std::size_t>(i));
    descending = true;
  }
}

// --- LazyUniverse ----------------------------------------------------------

LazyUniverse::LazyUniverse(const SearchSpace& space,
                           LazyUniverseOptions options, ThreadPool* pool)
    : space_(space),
      options_(options),
      pool_(pool),
      regions_(build_regions(space)) {
  CSTUNER_CHECK(options_.chunk > 0);
  build_blocks();
}

void LazyUniverse::build_blocks() {
  for (std::uint32_t r = 0; r < regions_.size(); ++r) {
    for_each_tb(space_, regions_[r],
                [&](const std::array<std::int64_t, 3>& tb) {
                  BlockRef block;
                  block.region = r;
                  block.tb = tb;
                  blocks_.push_back(block);
                });
  }
  const auto count_one = [this](std::size_t i) {
    blocks_[i].count =
        count_block(space_, regions_[blocks_[i].region], blocks_[i].tb);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(blocks_.size(), count_one);
  } else {
    for (std::size_t i = 0; i < blocks_.size(); ++i) count_one(i);
  }
  total_count_ = 0;
  for (const BlockRef& block : blocks_) total_count_ += block.count;
}

std::uint64_t LazyUniverse::region_count(std::size_t region_index) const {
  std::uint64_t total = 0;
  for (const BlockRef& block : blocks_) {
    if (block.region == region_index) total += block.count;
  }
  return total;
}

bool LazyUniverse::next_chunk(std::vector<Setting>& out) {
  std::size_t appended = 0;
  while (appended < options_.chunk) {
    if (!cursor_.has_value()) {
      while (cursor_block_ < blocks_.size() &&
             blocks_[cursor_block_].count == 0) {
        ++cursor_block_;
      }
      if (cursor_block_ >= blocks_.size()) break;
      cursor_.emplace(space_, regions_[blocks_[cursor_block_].region],
                      blocks_[cursor_block_].tb);
    }
    Setting s;
    if (cursor_->next(s)) {
      out.push_back(s);
      ++appended;
    } else {
      cursor_.reset();
      ++cursor_block_;
    }
  }
  return appended > 0;
}

void LazyUniverse::reset() {
  cursor_block_ = 0;
  cursor_.reset();
}

std::vector<std::vector<Setting>> LazyUniverse::enumerate_blocks(
    std::size_t begin, std::size_t end) {
  std::vector<std::vector<Setting>> out(end - begin);
  const auto body = [&](std::size_t i) {
    const BlockRef& block = blocks_[begin + i];
    if (block.count == 0) return;
    out[i].reserve(static_cast<std::size_t>(block.count));
    BlockCursor cursor(space_, regions_[block.region], block.tb);
    Setting s;
    while (cursor.next(s)) out[i].push_back(s);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(out.size(), body);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) body(i);
  }
  return out;
}

void LazyUniverse::for_each_chunk(
    const std::function<void(const std::vector<Setting>&)>& fn) {
  std::vector<Setting> buffer;
  buffer.reserve(options_.chunk);
  const auto push = [&](const Setting& s) {
    buffer.push_back(s);
    if (buffer.size() == options_.chunk) {
      fn(buffer);
      buffer.clear();
    }
  };
  std::size_t b = 0;
  while (b < blocks_.size()) {
    if (blocks_[b].count == 0) {
      ++b;
      continue;
    }
    if (blocks_[b].count > options_.window) {
      // A single block larger than the window: walk it serially so memory
      // stays bounded by the chunk size.
      BlockCursor cursor(space_, regions_[blocks_[b].region], blocks_[b].tb);
      Setting s;
      while (cursor.next(s)) push(s);
      ++b;
      continue;
    }
    std::size_t e = b;
    std::uint64_t buffered = 0;
    while (e < blocks_.size() && blocks_[e].count <= options_.window &&
           buffered + blocks_[e].count <= options_.window) {
      buffered += blocks_[e].count;
      ++e;
    }
    const auto per_block = enumerate_blocks(b, e);
    for (const auto& settings : per_block) {
      for (const Setting& s : settings) push(s);
    }
    b = e;
  }
  if (!buffer.empty()) fn(buffer);
}

std::vector<Setting> LazyUniverse::take_all(std::uint64_t limit) {
  std::vector<Setting> out;
  if (limit >= total_count_) {
    out.reserve(static_cast<std::size_t>(total_count_));
    for_each_chunk([&](const std::vector<Setting>& chunk) {
      out.insert(out.end(), chunk.begin(), chunk.end());
    });
    return out;
  }
  out.reserve(static_cast<std::size_t>(limit));
  reset();
  while (out.size() < limit && next_chunk(out)) {
  }
  if (out.size() > limit) out.resize(static_cast<std::size_t>(limit));
  reset();
  return out;
}

std::vector<Setting> LazyUniverse::spread_sample(std::size_t k,
                                                 std::uint64_t salt) {
  if (k == 0 || total_count_ == 0) return {};
  if (k >= total_count_) return take_all();

  // Largest-remainder quotas proportional to the exact block counts.
  std::vector<std::uint64_t> quota(blocks_.size(), 0);
  std::vector<std::pair<std::uint64_t, std::size_t>> remainders;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const unsigned __int128 scaled =
        static_cast<unsigned __int128>(k) * blocks_[i].count;
    quota[i] = static_cast<std::uint64_t>(scaled / total_count_);
    const auto rem = static_cast<std::uint64_t>(scaled % total_count_);
    assigned += quota[i];
    if (rem > 0) remainders.emplace_back(rem, i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t j = 0; assigned < k && j < remainders.size();
       ++j, ++assigned) {
    ++quota[remainders[j].second];
  }

  std::vector<std::vector<Setting>> picked(blocks_.size());
  const auto body = [&](std::size_t i) {
    const std::uint64_t q = quota[i];
    if (q == 0) return;
    std::uint64_t stride =
        std::min(blocks_[i].count / q, options_.max_spread_stride);
    if (stride == 0) stride = 1;
    std::uint64_t offset = 0;
    if (salt != 0) {
      // Deterministic per-block phase: the comb of q picks at spacing
      // `stride` fits anywhere in [0, count - (q-1)*stride); hashing
      // (salt, block) picks the phase, so different salts see different —
      // but equally spread — settings without any rejection or RNG state.
      const std::uint64_t slack = blocks_[i].count - (q - 1) * stride;
      offset = hash_combine(salt, static_cast<std::uint64_t>(i)) % slack;
    }
    picked[i].reserve(static_cast<std::size_t>(q));
    BlockCursor cursor(space_, regions_[blocks_[i].region], blocks_[i].tb);
    Setting s;
    std::uint64_t pos = 0;
    std::uint64_t next_pick = offset;
    while (picked[i].size() < q && cursor.next(s)) {
      if (pos == next_pick) {
        picked[i].push_back(s);
        next_pick += stride;
      }
      ++pos;
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(picked.size(), body);
  } else {
    for (std::size_t i = 0; i < picked.size(); ++i) body(i);
  }

  std::vector<Setting> out;
  out.reserve(k);
  for (const auto& settings : picked) {
    out.insert(out.end(), settings.begin(), settings.end());
  }
  return out;
}

}  // namespace cstuner::space
