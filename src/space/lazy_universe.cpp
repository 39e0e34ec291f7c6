#include "space/lazy_universe.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

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

/// Index of the lowest set bit of a nonzero value mask.
std::size_t lowest_bit(std::uint64_t bits) {
  return static_cast<std::size_t>(std::countr_zero(bits));
}

std::int64_t grid_extent(const stencil::StencilSpec& spec, int dim) {
  return static_cast<std::int64_t>(spec.grid[static_cast<std::size_t>(dim)]);
}

/// Counts over power-of-two exponents in one flat buffer: at(me, ue) is the
/// number of parameter combinations whose merge factors multiply to 2^me
/// and whose unroll factors multiply to 2^ue. reset() keeps the buffer's
/// capacity, so a counter that rebuilds its tables many times allocates
/// only on first use.
struct ExpTable {
  std::size_t rows = 0;   ///< merge exponents 0..rows-1
  std::size_t width = 0;  ///< unroll exponents 0..width-1
  std::vector<std::uint64_t> c;

  void reset(std::size_t r, std::size_t w) {
    rows = r;
    width = w;
    c.assign(r * w, 0);
  }
  std::uint64_t& at(std::size_t me, std::size_t ue) {
    return c[me * width + ue];
  }
  const std::uint64_t* row(std::size_t me) const {
    return c.data() + me * width;
  }
  bool row_zero(std::size_t me) const {
    return std::all_of(row(me), row(me) + width,
                       [](std::uint64_t v) { return v == 0; });
  }
};

/// out = a * b, convolving both exponents.
void multiply(const ExpTable& a, const ExpTable& b, ExpTable& out) {
  out.reset(a.rows + b.rows - 1, a.width + b.width - 1);
  for (std::size_t ma = 0; ma < a.rows; ++ma) {
    for (std::size_t ua = 0; ua < a.width; ++ua) {
      const std::uint64_t v = a.c[ma * a.width + ua];
      if (v == 0) continue;
      for (std::size_t mb = 0; mb < b.rows; ++mb) {
        const std::uint64_t* row = b.row(mb);
        for (std::size_t ub = 0; ub < b.width; ++ub) {
          out.at(ma + mb, ua + ub) += v * row[ub];
        }
      }
    }
  }
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

/// One factor of a block's count. A non-streaming dimension contributes
/// its (CM, BM, UF) choices, keyed by merge and unroll exponent, with the
/// rule-9 tile extent tb*2^me + 2*order. The streaming pseudo-dimension
/// contributes its (UF_sd, SB) choices in a single row: no merge exponent
/// and no tile extent (its shared-memory planes are folded into ext_cap).
struct Part {
  ExpTable t;
  std::int64_t tb = 0;  ///< 0 for the streaming pseudo-dimension
  int order = 0;
  bool empty = true;  ///< no admissible choice under the region masks

  std::int64_t ext(std::size_t me) const {
    return tb == 0 ? 1 : tb * (std::int64_t{1} << me) + 2 * order;
  }
};

std::size_t exponent(std::int64_t pow2) {
  return static_cast<std::size_t>(ilog2(static_cast<std::uint64_t>(pow2)));
}

/// Fills `part` with one non-streaming dimension's choices under the region
/// masks, rules 3 and 7 applied exactly.
void build_dim_part(const BlockContext& ctx, int dim, Part& part) {
  const SearchSpace& space = *ctx.space;
  const EnumRegion& region = *ctx.region;
  const std::int64_t grid = grid_extent(space.spec(), dim);
  const auto& cms = space.parameter(kCmIds[dim]).values;
  const auto& bms = space.parameter(kBmIds[dim]).values;
  const auto& ufs = space.parameter(kUfIds[dim]).values;
  part.tb = ctx.tb[static_cast<std::size_t>(dim)];
  part.order = space.spec().order;
  part.t.reset(exponent(cms.back() * bms.back()) + 1, exponent(ufs.back()) + 1);
  part.empty = true;
  for (std::uint64_t cm_bits = region.masks[idx(kCmIds[dim])]; cm_bits != 0;
       cm_bits &= cm_bits - 1) {
    const std::int64_t cm = cms[lowest_bit(cm_bits)];
    for (std::uint64_t bm_bits = region.masks[idx(kBmIds[dim])];
         bm_bits != 0; bm_bits &= bm_bits - 1) {
      const std::int64_t prod = cm * bms[lowest_bit(bm_bits)];
      if (part.tb * prod > grid) break;  // values ascending
      for (std::uint64_t uf_bits = region.masks[idx(kUfIds[dim])];
           uf_bits != 0; uf_bits &= uf_bits - 1) {
        const std::int64_t uf = ufs[lowest_bit(uf_bits)];
        if (uf > prod) break;  // values ascending
        ++part.t.at(exponent(prod), exponent(uf));
        part.empty = false;
      }
    }
  }
}

/// Fills `part` with the streaming pseudo-dimension: every admissible
/// (UF_sd, SB) pair under rules 5 and 6, keyed by the UF_sd exponent.
void build_pseudo_part(const BlockContext& ctx, Part& part) {
  const SearchSpace& space = *ctx.space;
  const EnumRegion& region = *ctx.region;
  const std::int64_t sgrid = grid_extent(space.spec(), region.sd);
  const auto& ufs = space.parameter(kUfIds[region.sd]).values;
  const auto& sbs = space.parameter(kSB).values;
  part.tb = 0;
  part.t.reset(1, exponent(ufs.back()) + 1);
  part.empty = true;
  for (std::uint64_t uf_bits = region.masks[idx(kUfIds[region.sd])];
       uf_bits != 0; uf_bits &= uf_bits - 1) {
    const std::int64_t uf = ufs[lowest_bit(uf_bits)];
    std::uint64_t supports = 0;
    for (std::uint64_t sb_bits = region.masks[idx(kSB)]; sb_bits != 0;
         sb_bits &= sb_bits - 1) {
      const std::int64_t sb = sbs[lowest_bit(sb_bits)];
      if (sb > sgrid) break;  // ascending; rule 5
      if (sb >= uf) ++supports;  // rule 6
    }
    if (supports > 0) {
      part.t.at(0, exponent(uf)) = supports;
      part.empty = false;
    }
  }
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

}  // namespace

/// count_block's dynamic program for one block, with the mask-independent
/// work done once: the context and the register frontier read only the
/// pinned flags and the thread-block shape.
///
/// A count combines one focus part with frames, the joint distribution of
/// all other parts, folded into a weight per focus cell. narrow() rebuilds
/// only the part the parameter feeds and makes it the focus, so an
/// unrank's successive counts on one parameter reuse the weights and cost
/// one part plus a dot product. Every table lives in a buffer the counter
/// reuses, so counting allocates only while the buffers first grow.
///
/// The frontier is built over the block's full masks and stays exact under
/// narrowing: narrowing only zeroes table cells, and the combine never
/// reads the frontier beyond the exponents its tables still hold. The same
/// frontier is BlockCursor's leaf verdict (admits()), so counting and
/// enumeration judge a setting by one rule.
class BlockCounter {
 public:
  BlockCounter(const SearchSpace& space, const EnumRegion& region,
               const std::array<std::int64_t, 3>& tb)
      : region_(region), ctx_(make_context(space, region_, tb)) {
    if (ctx_.threads > space.checker().limits().max_threads_per_block) {
      return;
    }
    build_parts();
    int me_max = 0;
    int ue_max = 0;
    for (std::size_t p = 0; p < nparts_; ++p) {
      const Part& part = parts_[p];
      if (part.empty) return;
      std::size_t part_me = 0;
      std::size_t part_ue = 0;
      for (std::size_t me = 0; me < part.t.rows; ++me) {
        for (std::size_t ue = 0; ue < part.t.width; ++ue) {
          if (part.t.row(me)[ue] == 0) continue;
          part_me = std::max(part_me, me);
          part_ue = std::max(part_ue, ue);
        }
      }
      me_max += static_cast<int>(part_me);
      ue_max += static_cast<int>(part_ue);
    }
    max_ue_ = build_max_ue(ctx_, me_max, ue_max);
    live_ = true;
  }

  BlockCounter(const BlockCounter&) = delete;
  BlockCounter& operator=(const BlockCounter&) = delete;

  /// Exact number of valid settings of the block under the current masks.
  std::uint64_t count() {
    if (!live_) return 0;
    for (std::size_t p = 0; p < nparts_; ++p) {
      if (parts_[p].empty) return 0;
    }
    if (frames_for_ != focus_) build_frames();
    const std::vector<std::uint64_t>& cells = parts_[focus_].t.c;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      total += cells[i] * weights_[i];
    }
    return total;
  }

  /// The verdict of rules 8, 8b and 9 on a setting of this block that
  /// already satisfies rules 1-7 and 10 (BlockCursor's candidate lists
  /// apply those), exact and in O(1). With the flags and the thread-block
  /// shape fixed, the resource model reads the free parameters only through
  /// the total merge exponent me and unroll exponent ue (registers) and the
  /// product of the tile extents tb*CM*BM + 2*order (shared memory), so the
  /// setting is valid iff max_ue[me] >= ue and that product is at most
  /// ext_cap. A me past the frontier has no valid completion at all.
  bool admits(const Setting& s) const {
    if (!live_) return false;
    const std::size_t me = exponent(s.points_per_thread());
    if (me >= max_ue_.size()) return false;
    const std::int64_t unroll = s.get(kUFx) * s.get(kUFy) * s.get(kUFz);
    if (max_ue_[me] < static_cast<int>(exponent(unroll))) return false;
    if (!ctx_.shared) return true;
    std::int64_t ext = 1;
    for (int d = 0; d < 3; ++d) {
      if (region_.streaming && d == region_.sd) continue;
      ext *= ctx_.tb[static_cast<std::size_t>(d)] * s.get(kCmIds[d]) *
                 s.get(kBmIds[d]) +
             2 * ctx_.space->spec().order;
    }
    return ext <= ctx_.ext_cap;
  }

  /// Restricts free numeric parameter `id` to the values in `mask`, a
  /// subset of its current mask.
  void narrow(ParamId id, std::uint64_t mask) {
    region_.masks[idx(id)] = mask;
    if (!live_) return;
    const int d = param_dimension(id);
    std::size_t part = nparts_ - 1;  // the streaming pseudo-part
    if (id != kSB && !(region_.streaming && d == region_.sd)) {
      part = part_of_dim_[static_cast<std::size_t>(d)];
      build_dim_part(ctx_, d, parts_[part]);
    } else {
      build_pseudo_part(ctx_, parts_[part]);
    }
    // Frames built around this focus exclude the rebuilt part and stay
    // valid; frames built around any other focus include it and do not.
    if (frames_for_ != part) frames_for_ = kNoFrames;
    focus_ = part;
  }

  /// Undoes every narrow(): back to the block's full masks.
  void widen(const EnumRegion& region) {
    region_.masks = region.masks;
    if (!live_) return;
    nparts_ = 0;
    build_parts();
    frames_for_ = kNoFrames;
  }

 private:
  static constexpr std::size_t kNoFrames = static_cast<std::size_t>(-1);

  void build_parts() {
    for (int d = 0; d < 3; ++d) {
      if (region_.streaming && d == region_.sd) continue;
      part_of_dim_[static_cast<std::size_t>(d)] = nparts_;
      build_dim_part(ctx_, d, parts_[nparts_++]);
    }
    if (region_.streaming) build_pseudo_part(ctx_, parts_[nparts_++]);
  }

  /// Frames: one per combination of the non-focus parts' merge exponents
  /// (per total merge exponent when rule 9 cannot bind), each with the
  /// product of its tile extents, its total merge exponent, and its
  /// distribution over the total unroll exponent. Each frame is folded into
  /// weights_ as soon as it is built: weights_[me_a * width + u] is the
  /// number of combinations of the other parts that complete a focus
  /// choice of merge exponent me_a and unroll exponent u into a valid
  /// setting. Weights depend on the other parts only, so every count on
  /// this focus is one dot product with the focus table.
  void build_frames() {
    CSTUNER_OBS_COUNT("space.counter_frames_built", 1);
    weights_.assign(parts_[focus_].t.c.size(), 0);
    width_ = 1;
    for (std::size_t p = 0; p < nparts_; ++p) {
      if (p != focus_) width_ += parts_[p].t.width - 1;
    }
    prefix_.resize(width_);
    if (!ctx_.shared) {
      // Rule 9 never binds: the other parts collapse into one joint
      // (me, ue) table, one frame per total merge exponent.
      joint_.reset(1, 1);
      joint_.c[0] = 1;
      for (std::size_t p = 0; p < nparts_; ++p) {
        if (p == focus_) continue;
        multiply(joint_, parts_[p].t, scratch_);
        std::swap(joint_, scratch_);
      }
      for (std::size_t me = 0; me < joint_.rows; ++me) {
        if (!joint_.row_zero(me)) add_frame(1, me, joint_.row(me), width_);
      }
    } else {
      level_[0].assign(1, 1);
      descend(0, 0, 1, 0);
    }
    frames_for_ = focus_;
  }

  /// Shared-memory-bound frames: walk the other parts' merge exponents with
  /// the running tile-extent product, pruning as soon as it exceeds ext_cap
  /// (extents grow with me, so the walk breaks early). level_[depth] holds
  /// the unroll distribution of the parts chosen so far.
  void descend(std::size_t p, std::size_t depth, std::int64_t ext_prod,
               std::size_t me_sum) {
    if (p == focus_) ++p;
    const std::vector<std::uint64_t>& poly = level_[depth];
    if (p >= nparts_) {
      add_frame(ext_prod, me_sum, poly.data(), poly.size());
      return;
    }
    const Part& part = parts_[p];
    std::vector<std::uint64_t>& next = level_[depth + 1];
    for (std::size_t me = 0; me < part.t.rows; ++me) {
      if (ext_prod > ctx_.ext_cap / part.ext(me)) break;  // rule 9
      if (part.t.row_zero(me)) continue;
      const std::uint64_t* row = part.t.row(me);
      next.assign(poly.size() + part.t.width - 1, 0);
      for (std::size_t i = 0; i < poly.size(); ++i) {
        if (poly[i] == 0) continue;
        for (std::size_t j = 0; j < part.t.width; ++j) {
          next[i + j] += poly[i] * row[j];
        }
      }
      descend(p + 1, depth + 1, ext_prod * part.ext(me), me_sum + me);
    }
  }

  void add_frame(std::int64_t ext_prod, std::size_t me,
                 const std::uint64_t* poly, std::size_t n) {
    // prefix_[u] = combinations with total unroll exponent <= u.
    std::uint64_t running = 0;
    for (std::size_t u = 0; u < width_; ++u) {
      if (u < n) running += poly[u];
      prefix_[u] = running;
    }
    const Part& focus = parts_[focus_];
    for (std::size_t me_a = 0; me_a < focus.t.rows; ++me_a) {
      if (ext_prod > ctx_.ext_cap / focus.ext(me_a)) break;  // rule 9
      const std::size_t me_total = me + me_a;
      // The frontier is nonincreasing in me.
      if (me_total >= max_ue_.size() || max_ue_[me_total] < 0) break;
      const auto cap = static_cast<std::size_t>(max_ue_[me_total]);
      std::uint64_t* weight = &weights_[me_a * focus.t.width];
      for (std::size_t u = 0; u < focus.t.width && u <= cap; ++u) {
        weight[u] += prefix_[std::min(cap - u, width_ - 1)];
      }
    }
  }

  EnumRegion region_;  ///< the block's region with the narrowed masks
  BlockContext ctx_;   ///< points at region_
  std::array<Part, 3> parts_;
  std::size_t nparts_ = 0;
  std::array<std::size_t, 3> part_of_dim_{};
  std::vector<int> max_ue_;
  std::size_t focus_ = 0;
  /// The focus the weights were built around; kNoFrames before the first.
  std::size_t frames_for_ = kNoFrames;
  std::vector<std::uint64_t> weights_;
  std::vector<std::uint64_t> prefix_;
  /// Unroll-exponent span of the frames (the other parts' widths summed).
  std::size_t width_ = 1;
  ExpTable joint_;
  ExpTable scratch_;
  std::array<std::vector<std::uint64_t>, 3> level_;
  /// False when the full block is already empty; narrowing keeps it so.
  bool live_ = false;
};

namespace {

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
  return BlockCounter(space, region, tb).count();
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
    : space_(&space),
      region_(&region),
      counter_(std::make_unique<BlockCounter>(space, region, tb)) {
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

BlockCursor::~BlockCursor() = default;

void BlockCursor::observe_trials(
    std::function<void(const Setting&, bool)> fn) {
  observer_ = std::move(fn);
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

bool BlockCursor::seek(std::uint64_t rank, Setting& out) {
  BlockCounter& counter = *counter_;
  if (narrowed_) counter.widen(*region_);
  narrowed_ = true;
  if (rank >= counter.count()) {
    done_ = true;
    return false;
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    build_candidates(i);
    Level& lv = levels_[i];
    CSTUNER_CHECK(!lv.candidates.empty());
    const auto& values = space_->parameter(lv.id).values;
    const auto bit_of = [&values](std::int64_t value) {
      const auto at = std::lower_bound(values.begin(), values.end(), value);
      return std::uint64_t{1} << static_cast<std::size_t>(at - values.begin());
    };
    // The deeper levels span exactly the valid settings that share this
    // prefix, so narrowing this parameter to one value counts its subtree;
    // skip whole subtrees until the rank falls inside one. A value past
    // the last candidate's is never reached: the rank is below the count.
    for (;; ++lv.pos) {
      counter.narrow(lv.id, bit_of(lv.candidates[lv.pos]));
      if (lv.pos + 1 == lv.candidates.size()) break;
      const std::uint64_t subtree = counter.count();
      if (rank < subtree) break;
      rank -= subtree;
    }
    current_.set(lv.id, lv.candidates[lv.pos]);
  }
  depth_ = static_cast<int>(levels_.size()) - 1;
  done_ = false;
  out = current_;
  return true;
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
      // setting outside the frontier here (registers and tile extents grow
      // with this parameter) rules out this and every larger candidate.
      placed = counter_->admits(current_);
      if (observer_) observer_(current_, placed);
      if (!placed) lv.pos = lv.candidates.size();
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
  CSTUNER_CHECK(assigned == k);

  // Each block writes its picks straight into its slice of the output.
  std::vector<std::size_t> first(blocks_.size(), 0);
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    first[i] = first[i - 1] + static_cast<std::size_t>(quota[i - 1]);
  }
  std::vector<Setting> out(k);
  std::atomic<std::uint64_t> walked{0};
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
    // Unrank straight to the phase, then walk only the comb's teeth.
    BlockCursor cursor(space_, regions_[blocks_[i].region], blocks_[i].tb);
    Setting* pick = &out[first[i]];
    CSTUNER_CHECK(cursor.seek(offset, *pick));
    for (std::uint64_t j = 1; j < q; ++j) {
      ++pick;
      for (std::uint64_t step = 0; step < stride; ++step) {
        CSTUNER_CHECK(cursor.next(*pick));
      }
    }
    walked.fetch_add(1 + (q - 1) * stride, std::memory_order_relaxed);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(blocks_.size(), body);
  } else {
    for (std::size_t i = 0; i < blocks_.size(); ++i) body(i);
  }
  CSTUNER_OBS_COUNT("space.spread_leaves_walked", walked.load());
  return out;
}

}  // namespace cstuner::space
