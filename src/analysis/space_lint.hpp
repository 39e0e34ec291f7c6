#pragma once
// Pass 4 of the static analyzer: search-space lint. Turns the symbolic
// propagation engine's verdicts (analysis/propagate.hpp) into structured
// diagnostics: per-parameter value liveness — a value is *dead* when no
// valid setting assigns it — jointly infeasible bool/enum pairs, and the
// exact valid count. Auto-tuning spaces are notoriously full of such holes
// (Schoonhoven et al.); surfacing them documents the space.
//
// Every finding is proven by the engine and tagged "proven"; only the
// sampled valid fraction is an estimate and is tagged "heuristic"
// (docs/static-analysis.md).

#include <cstdint>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/propagate.hpp"
#include "space/search_space.hpp"

namespace cstuner::analysis {

struct SpaceLintOptions {
  /// Random draws for the valid-fraction estimate (0 disables it).
  std::size_t validity_samples = 2000;
  std::uint64_t seed = 1;
};

struct SpaceLintResult {
  Report report;
  /// live[p][i]: some valid setting assigns parameters()[p].values[i].
  std::vector<std::vector<char>> live;
  std::size_t dead_values = 0;
  std::size_t dead_pairs = 0;
  /// Exact number of valid settings.
  std::uint64_t valid_count = 0;
  /// Fraction of independently-uniform draws that satisfy all constraints.
  double sampled_valid_fraction = 0.0;

  bool value_is_live(space::ParamId id, std::int64_t value,
                     const space::SearchSpace& space) const;
};

/// Lints `space` from its propagation result, which must come from
/// propagate(space) with counts computed.
SpaceLintResult lint_space(const space::SearchSpace& space,
                           const PropagationResult& propagation,
                           const SpaceLintOptions& options = {});

}  // namespace cstuner::analysis
