#include "analysis/space_lint.hpp"

#include <sstream>

namespace cstuner::analysis {

using space::ParamId;

bool SpaceLintResult::value_is_live(ParamId id, std::int64_t value,
                                    const space::SearchSpace& space) const {
  const auto p = static_cast<std::size_t>(id);
  const auto& values = space.parameters()[p].values;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == value) return live[p][i] != 0;
  }
  return false;
}

SpaceLintResult lint_space(const space::SearchSpace& space,
                           const PropagationResult& propagation,
                           const SpaceLintOptions& options) {
  SpaceLintResult result;
  const auto& params = space.parameters();
  result.valid_count = propagation.valid_count;

  // --- Per-parameter value liveness. ---------------------------------------
  result.live.resize(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    result.live[p].assign(params[p].values.size(), 0);
    for (std::size_t i = 0; i < params[p].values.size(); ++i) {
      result.live[p][i] =
          ((propagation.live_masks[p] >> i) & 1U) != 0 ? 1 : 0;
    }
  }
  for (const DeadValue& dv : propagation.dead_values) {
    ++result.dead_values;
    const auto& param = params[static_cast<std::size_t>(dv.param)];
    std::ostringstream msg;
    msg << param.name << '=' << dv.value
        << " appears in no valid setting (statically prunable); rule "
        << dv.rule << ": " << dv.certificate;
    result.report.warn("space.dead-value", "space:" + param.name, msg.str(),
                       "proven");
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (params[p].values.empty() || propagation.live_masks[p] != 0) continue;
    result.report.error("space.dead-parameter", "space:" + params[p].name,
                        "every admissible value of " + params[p].name +
                            " is dead: the space is empty",
                        "proven");
  }

  // --- Jointly infeasible bool/enum pairs. ---------------------------------
  for (const DeadPair& pair : propagation.dead_pairs) {
    ++result.dead_pairs;
    const auto& pa = params[static_cast<std::size_t>(pair.a)];
    const auto& pb = params[static_cast<std::size_t>(pair.b)];
    std::ostringstream msg;
    msg << pa.name << '=' << pair.value_a << " with " << pb.name << '='
        << pair.value_b
        << " is jointly infeasible (statically prunable subspace): "
        << pair.certificate;
    result.report.note("space.dead-subspace",
                       "space:" + pa.name + "x" + pb.name, msg.str(),
                       "proven");
  }

  // --- Exact valid count. --------------------------------------------------
  std::ostringstream count_msg;
  count_msg << result.valid_count << " valid settings (exact) out of 10^"
            << space.log10_cartesian_size() << " raw combinations";
  result.report.note("space.valid-count", "space", count_msg.str(), "proven");

  // --- Valid fraction of the unconstrained cartesian space. ----------------
  // Always sampled: it estimates rejection-sampling efficiency, which the
  // symbolic count does not replace (and cross-checks it cheaply).
  if (options.validity_samples > 0) {
    Rng rng(options.seed);
    std::size_t valid = 0;
    for (std::size_t i = 0; i < options.validity_samples; ++i) {
      if (space.is_valid(space.random_setting(rng))) ++valid;
    }
    result.sampled_valid_fraction =
        static_cast<double>(valid) /
        static_cast<double>(options.validity_samples);
    std::ostringstream msg;
    msg << "~" << result.sampled_valid_fraction * 100.0
        << "% of independently-uniform draws satisfy all constraints";
    result.report.note("space.valid-fraction", "space", msg.str(),
                       "heuristic");
  }

  return result;
}

}  // namespace cstuner::analysis
