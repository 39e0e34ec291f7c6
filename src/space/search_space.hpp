#pragma once
// The constrained search space for one (stencil, resource-limit) pair:
// parameter list, constraint checking, random setting draws, and
// candidate-universe construction by exact enumeration
// (space/lazy_universe.hpp, DESIGN.md §5).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "space/constraints.hpp"

namespace cstuner::space {

class SearchSpace {
 public:
  SearchSpace(stencil::StencilSpec spec, SpaceLimits space_limits = {},
              ResourceLimits resource_limits = {});

  // The checker holds references into this object; pin the address.
  SearchSpace(const SearchSpace&) = delete;
  SearchSpace& operator=(const SearchSpace&) = delete;

  const stencil::StencilSpec& spec() const { return spec_; }
  const std::vector<Parameter>& parameters() const { return parameters_; }
  const Parameter& parameter(ParamId id) const {
    return parameters_[static_cast<std::size_t>(id)];
  }
  const ConstraintChecker& checker() const { return *checker_; }

  /// Fast validity check; optionally hands back the rule-8 resource
  /// estimate so hot-path callers don't recompute it (constraints.hpp).
  bool is_valid(const Setting& setting,
                ResourceUsage* usage_out = nullptr) const {
    return checker_->is_valid(setting, usage_out);
  }

  /// One independently uniform draw per parameter, canonicalized; the result
  /// may still violate cross-parameter constraints.
  Setting random_setting(Rng& rng) const;

  /// Rejection-samples until a valid setting is found.
  Setting random_valid(Rng& rng, std::size_t max_tries = 100000) const;

  /// `count` distinct valid settings. Built by exact lazy enumeration
  /// (space::LazyUniverse): a valid space no larger than `count` is
  /// returned whole, a larger one as a count-proportioned spread sample
  /// whose phase is salted from `rng` — seed-dependent but rejection-free
  /// and bit-identical across worker counts. Consumes exactly one RNG draw.
  std::vector<Setting> sample_universe(Rng& rng, std::size_t count) const;

  /// Up to `count` distinct valid settings drawn with the constructive
  /// sampler (random_setting + rejection, at most 64 draws per requested
  /// setting). Unlike sample_universe this is
  /// per-parameter balanced rather than proportional to region mass, which
  /// is what model training wants: a proportional sample at small `count`
  /// collapses onto the few largest enumeration blocks and leaves flags and
  /// values too unbalanced to fit (tuner::collect_dataset).
  std::vector<Setting> sample_constructive(Rng& rng, std::size_t count) const;

  /// log10 of the unconstrained cartesian product size (Table I scale).
  double log10_cartesian_size() const;

  /// Raw parameter values as doubles (all >= 1), the PMNF feature encoding.
  static std::vector<double> to_feature_row(const Setting& setting);

  /// log2 of numeric values, raw bool/enum values — the CV feature encoding
  /// the paper uses so correlation comparisons are fair across parameters.
  static double cv_encoded(ParamId id, std::int64_t value);

 private:
  stencil::StencilSpec spec_;
  SpaceLimits space_limits_;
  std::vector<Parameter> parameters_;
  std::unique_ptr<ConstraintChecker> checker_;
};

}  // namespace cstuner::space
