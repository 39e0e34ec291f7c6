#pragma once
// Symbolic constraint propagation over the search space
// (docs/search-space.md, docs/static-analysis.md). This engine *proves*
// facts about the space rather than probing it with random draws:
//
//   1. Case-split on the bool/enum/temporal parameters into the canonical
//      regions of space/lazy_universe.hpp (rule 2 / rule 10 combinations
//      that cannot be encoded are excluded by construction).
//   2. Inside each region run an arc-consistency style fixpoint over the
//      free numeric parameters' ValueDomains: a value is kept iff its
//      *minimal witness* — the setting that pins the value, picks the
//      cheapest support for the unroll rules, and leaves everything else at
//      the domain minimum — passes the ConstraintChecker. Every rule's
//      left-hand side is monotone nondecreasing in every free parameter
//      within a region, so the minimal witness decides liveness exactly:
//      the failed rule on the witness is an unsat certificate for the value,
//      and a region whose all-minima witness fails is proven empty.
//   3. Aggregate across regions: proven-dead values and jointly-infeasible
//      pairs with certificates, per-rule pruning attribution, and exact
//      valid-setting counts per region (space/lazy_universe.hpp's counting
//      DP over the pruned domains).
//
// The result feeds lint_space (proven diagnostics) and the CLI's
// `analyze --space` mode.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/domain.hpp"
#include "common/thread_pool.hpp"
#include "space/lazy_universe.hpp"

namespace cstuner::analysis {

struct PropagateOptions {
  /// Compute exact per-region valid-setting counts (runs the counting DP;
  /// skip when only deadness verdicts are needed).
  bool compute_counts = true;
  /// Parallelizes the counting DP across regions when provided.
  ThreadPool* pool = nullptr;
};

/// A value proven to appear in no valid setting, with the rule that kills it
/// and a human-readable unsat certificate.
struct DeadValue {
  space::ParamId param = space::kTBx;
  std::int64_t value = 0;
  std::string rule;
  std::string certificate;
};

/// Two individually-live values proven jointly infeasible.
struct DeadPair {
  space::ParamId a = space::kTBx;
  std::int64_t value_a = 0;
  space::ParamId b = space::kTBx;
  std::int64_t value_b = 0;
  std::string certificate;
};

struct RegionSummary {
  std::string label;       ///< EnumRegion::label()
  bool empty = false;      ///< proven: the all-minima witness fails
  std::string empty_reason;
  std::uint64_t valid_count = 0;  ///< exact; 0 when counts are skipped
};

struct PropagationResult {
  /// Canonical regions with masks pruned to exactly the live values.
  std::vector<space::EnumRegion> regions;
  std::vector<RegionSummary> region_summaries;

  /// live_masks[p] bit i set iff parameters()[p].values[i] appears in some
  /// valid setting (union of pins and pruned masks over non-empty regions).
  std::array<std::uint64_t, space::kParamCount> live_masks{};

  std::vector<DeadValue> dead_values;
  std::vector<DeadPair> dead_pairs;

  /// Exact number of valid settings in the whole space (compute_counts).
  std::uint64_t valid_count = 0;
  /// Stable rule id -> number of (region, value) prunes + region kills it
  /// accounts for; attributes *why* the space shrinks.
  std::map<std::string, std::uint64_t> rule_prunes;

  /// True iff `value` is admissible for `param` yet appears in no valid
  /// setting.
  bool value_proven_dead(space::ParamId param, std::int64_t value) const;
};

/// Stable rule identifier ("coverage", "register-file", ...) parsed from a
/// ConstraintChecker::violation message; "unknown" when unrecognized.
std::string classify_violation(const std::string& message);

/// Requires every parameter to have at most 64 values (checked), which
/// make_parameters guarantees for every SearchSpace.
PropagationResult propagate(const space::SearchSpace& space,
                            const PropagateOptions& options = {});

}  // namespace cstuner::analysis
