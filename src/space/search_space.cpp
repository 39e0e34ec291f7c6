#include "space/search_space.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "space/lazy_universe.hpp"

namespace cstuner::space {

SearchSpace::SearchSpace(stencil::StencilSpec spec, SpaceLimits space_limits,
                         ResourceLimits resource_limits)
    : spec_(std::move(spec)),
      space_limits_(space_limits),
      parameters_(make_parameters(spec_, space_limits_)),
      checker_(std::make_unique<ConstraintChecker>(spec_, parameters_,
                                                   resource_limits)) {}

Setting SearchSpace::random_setting(Rng& rng) const {
  // Constructive sampling: draw each parameter uniformly from the values
  // that remain admissible given the structural (explicit) constraints of
  // §IV-B, so rejection sampling only has to handle the implicit resource
  // constraints. Joint-uniform sampling of Table I is hopeless here — the
  // coverage/unroll/TB-product rules reject all but ~1e-4 of draws.
  auto pick_at_most = [&](ParamId id, std::int64_t cap) {
    const auto& values = parameters_[static_cast<std::size_t>(id)].values;
    std::size_t count = 0;
    while (count < values.size() && values[count] <= cap) ++count;
    CSTUNER_CHECK(count >= 1);
    return values[rng.index(count)];
  };
  auto pick_any = [&](ParamId id) {
    const auto& values = parameters_[static_cast<std::size_t>(id)].values;
    return values[rng.index(values.size())];
  };

  Setting s;
  s.set(kUseShared, pick_any(kUseShared));
  s.set(kUseConstant, pick_any(kUseConstant));
  s.set(kUseRetiming, pick_any(kUseRetiming));
  s.set(kUseStreaming, pick_any(kUseStreaming));

  const bool streaming = s.flag(kUseStreaming);
  int sd = -1;
  if (streaming) {
    s.set(kSD, pick_any(kSD));
    sd = static_cast<int>(s.get(kSD)) - 1;
    s.set(kSB, pick_at_most(
                   kSB, spec_.grid[static_cast<std::size_t>(sd)]));
    s.set(kUsePrefetching, pick_any(kUsePrefetching));
    // Temporal blocking (extension) piggybacks on the streaming pipeline
    // and needs a single in/out grid pair.
    if (spec_.n_inputs == 1 && spec_.n_outputs == 1) {
      s.set(kTemporal, pick_any(kTemporal));
    }
  }

  // Thread-block shape under the 1024-thread cap (streaming dim stays 1).
  const ParamId tb[] = {kTBx, kTBy, kTBz};
  const ParamId cm[] = {kCMx, kCMy, kCMz};
  const ParamId bm[] = {kBMx, kBMy, kBMz};
  const ParamId uf[] = {kUFx, kUFy, kUFz};
  const std::int64_t max_threads =
      checker_->limits().max_threads_per_block;
  std::int64_t tb_budget = max_threads;
  // Randomize the dimension order so no dimension is systematically
  // starved of large thread counts.
  int order[3] = {0, 1, 2};
  for (int i = 2; i > 0; --i) {
    std::swap(order[i], order[rng.index(static_cast<std::size_t>(i) + 1)]);
  }
  for (int d : order) {
    const std::int64_t extent = spec_.grid[static_cast<std::size_t>(d)];
    if (streaming && d == sd) {
      s.set(tb[d], 1);
      continue;
    }
    s.set(tb[d], pick_at_most(tb[d], std::min(tb_budget, extent)));
    tb_budget /= s.get(tb[d]);
  }

  // Merge factors within the per-dimension coverage budget, then unrolling
  // within the merged trip count (or SB along the streaming dimension).
  for (int d = 0; d < 3; ++d) {
    const std::int64_t extent = spec_.grid[static_cast<std::size_t>(d)];
    if (streaming && d == sd) {
      s.set(cm[d], 1);
      s.set(bm[d], 1);
      s.set(uf[d], pick_at_most(uf[d], s.get(kSB)));
      continue;
    }
    std::int64_t coverage_budget = extent / s.get(tb[d]);
    s.set(cm[d], pick_at_most(cm[d], std::max<std::int64_t>(coverage_budget, 1)));
    coverage_budget /= s.get(cm[d]);
    s.set(bm[d], pick_at_most(bm[d], std::max<std::int64_t>(coverage_budget, 1)));
    s.set(uf[d], pick_at_most(uf[d], s.get(cm[d]) * s.get(bm[d])));
  }
  return checker_->canonicalized(s);
}

Setting SearchSpace::random_valid(Rng& rng, std::size_t max_tries) const {
  for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
    Setting s = random_setting(rng);
    if (checker_->is_valid(s)) return s;
  }
  throw Error("random_valid: no valid setting found in " +
              std::to_string(max_tries) + " attempts");
}

std::vector<Setting> SearchSpace::sample_universe(Rng& rng,
                                                  std::size_t count) const {
  // Constraint-propagating enumeration: the exact valid count is known up
  // front, spaces no larger than `count` are taken whole, and larger ones
  // contribute a count-proportioned spread sample whose phase is salted from
  // the caller's RNG — seed-dependent, yet every pick lands on a distinct
  // valid setting. Exactly one RNG draw is consumed per call, so downstream
  // draws stay aligned across spaces of any size.
  const std::uint64_t salt = rng.next() | 1;  // nonzero: 0 means "no phase"
  LazyUniverse lazy(*this);
  if (lazy.valid_count() <= count) return lazy.take_all();
  return lazy.spread_sample(count, salt);
}

std::vector<Setting> SearchSpace::sample_constructive(Rng& rng,
                                                      std::size_t count) const {
  std::vector<Setting> out;
  // Content-comparing dedup: a raw hash-set of 64-bit hashes would silently
  // drop a distinct setting on collision.
  SettingDedup seen;
  const std::size_t max_tries = count * 64;
  for (std::size_t attempt = 0; attempt < max_tries && out.size() < count;
       ++attempt) {
    Setting s = random_setting(rng);
    if (!checker_->is_valid(s)) continue;
    if (seen.insert(s)) out.push_back(s);
  }
  return out;
}

double SearchSpace::log10_cartesian_size() const {
  double lg = 0.0;
  for (const Parameter& p : parameters_) {
    lg += std::log10(static_cast<double>(p.cardinality()));
  }
  return lg;
}

std::vector<double> SearchSpace::to_feature_row(const Setting& setting) {
  std::vector<double> row(kParamCount);
  for (std::size_t i = 0; i < kParamCount; ++i) {
    row[i] = static_cast<double>(setting.get(static_cast<ParamId>(i)));
  }
  return row;
}

double SearchSpace::cv_encoded(ParamId id, std::int64_t value) {
  if (is_numeric(id)) {
    return std::log2(static_cast<double>(value)) + 1.0;  // keep mean > 0
  }
  return static_cast<double>(value);
}

}  // namespace cstuner::space
