#include "analysis/propagate.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace cstuner::analysis {

namespace space_ns = cstuner::space;

namespace {

using space_ns::EnumRegion;
using space_ns::kParamCount;
using space_ns::Parameter;
using space_ns::ParamId;
using space_ns::SearchSpace;
using space_ns::Setting;

constexpr std::size_t idx(ParamId id) { return static_cast<std::size_t>(id); }

constexpr ParamId kSplitParams[7] = {
    space_ns::kUseShared,  space_ns::kUseConstant,
    space_ns::kUseStreaming, space_ns::kSD,
    space_ns::kUseRetiming, space_ns::kUsePrefetching,
    space_ns::kTemporal};

constexpr ParamId kCmIds[3] = {space_ns::kCMx, space_ns::kCMy, space_ns::kCMz};
constexpr ParamId kBmIds[3] = {space_ns::kBMx, space_ns::kBMy, space_ns::kBMz};
constexpr ParamId kUfIds[3] = {space_ns::kUFx, space_ns::kUFy, space_ns::kUFz};
constexpr ParamId kTbIds[3] = {space_ns::kTBx, space_ns::kTBy, space_ns::kTBz};

std::array<std::int64_t, 7> split_key_of_region(const EnumRegion& region) {
  std::array<std::int64_t, 7> key{};
  for (std::size_t i = 0; i < 7; ++i) {
    key[i] = region.pinned[idx(kSplitParams[i])];
  }
  return key;
}

std::array<std::int64_t, 7> split_key_of_setting(const Setting& setting) {
  std::array<std::int64_t, 7> key{};
  for (std::size_t i = 0; i < 7; ++i) {
    key[i] = setting.get(kSplitParams[i]);
  }
  return key;
}

/// Mutable per-region propagation state: one ValueDomain per free parameter.
struct RegionState {
  EnumRegion region;
  std::array<ValueDomain, kParamCount> domains;
  bool empty = false;
  std::string empty_reason;
};

/// The all-minima setting of the region under the current domains; the
/// pointwise-least member of the region's candidate box.
Setting base_witness(const RegionState& st) {
  Setting s;
  for (std::size_t p = 0; p < kParamCount; ++p) {
    const auto id = static_cast<ParamId>(p);
    if (st.region.pinned[p] != 0) {
      s.set(id, st.region.pinned[p]);
    } else if (!st.domains[p].empty()) {
      s.set(id, st.domains[p].min());
    }
  }
  return s;
}

/// Minimal support for an unroll factor: the (CM, BM) pair from the current
/// domains whose product is the least one >= `uf` while still covering the
/// grid. Registers and shared memory read (CM, BM) only through the product,
/// so the least product is the most permissive support — if the witness it
/// yields is invalid, no support works.
std::optional<std::pair<std::int64_t, std::int64_t>> min_unroll_support(
    const RegionState& st, int dim, std::int64_t uf, std::int64_t grid) {
  const ValueDomain& cms = st.domains[idx(kCmIds[dim])];
  const ValueDomain& bms = st.domains[idx(kBmIds[dim])];
  const std::int64_t tb_lo = st.domains[idx(kTbIds[dim])].empty()
                                 ? st.region.pinned[idx(kTbIds[dim])]
                                 : st.domains[idx(kTbIds[dim])].min();
  std::optional<std::pair<std::int64_t, std::int64_t>> best;
  std::int64_t best_prod = 0;
  cms.for_each([&](std::int64_t c) {
    bms.for_each([&](std::int64_t b) {
      const std::int64_t prod = c * b;
      if (prod < uf || tb_lo * prod > grid) return;
      if (!best.has_value() || prod < best_prod ||
          (prod == best_prod && c < best->first)) {
        best = {c, b};
        best_prod = prod;
      }
    });
  });
  return best;
}

/// The minimal witness for p=v in the region: v pinned, the cheapest support
/// for the unroll rules, every other free parameter at its domain minimum.
/// Returns nullopt (with the rule that lacks support) when no support
/// exists at all.
std::optional<Setting> minimal_witness(const RegionState& st,
                                       const SearchSpace& space, ParamId p,
                                       std::int64_t v,
                                       std::string* no_support_rule,
                                       std::string* no_support_reason) {
  Setting s = base_witness(st);
  s.set(p, v);
  const auto& spec = space.spec();
  const int dim = space_ns::param_dimension(p);
  const bool is_uf = p == kUfIds[0] || p == kUfIds[1] || p == kUfIds[2];
  if (is_uf && st.region.streaming && dim == st.region.sd) {
    // Rule 6: UF along the streaming dimension needs SB >= UF.
    const std::int64_t sb = st.domains[idx(space_ns::kSB)].ceil_value(v);
    if (sb < 0) {
      *no_support_rule = "sb-unroll";
      std::ostringstream os;
      os << space_ns::param_name(p) << '=' << v
         << " has no admissible SB >= it (SB domain "
         << st.domains[idx(space_ns::kSB)].to_string() << ')';
      *no_support_reason = os.str();
      return std::nullopt;
    }
    s.set(space_ns::kSB, sb);
  } else if (is_uf) {
    // Rule 7: UF elsewhere needs CM*BM >= UF within coverage.
    const std::int64_t grid =
        spec.grid[static_cast<std::size_t>(dim)];
    const auto support = min_unroll_support(st, dim, v, grid);
    if (!support.has_value()) {
      *no_support_rule = "unroll-support";
      std::ostringstream os;
      os << space_ns::param_name(p) << '=' << v
         << " has no merge support: no CM*BM >= it covers grid extent "
         << grid;
      *no_support_reason = os.str();
      return std::nullopt;
    }
    s.set(kCmIds[dim], support->first);
    s.set(kBmIds[dim], support->second);
  }
  return s;
}

struct KillRecord {
  std::string rule;
  std::string certificate;
  std::uint64_t regions = 0;
};

}  // namespace

std::string classify_violation(const std::string& message) {
  const auto has = [&message](const char* needle) {
    return message.find(needle) != std::string::npos;
  };
  if (has("is not an admissible value")) return "admissible";
  if (has("thread block exceeds")) return "threads";
  if (has("temporal blocking")) return "temporal";
  if (has("require streaming") || has("requires streaming")) {
    return "canonical";
  }
  if (has("coverage")) return "coverage";
  if (has("2.5-D blocking")) return "streaming-shape";
  if (has("SB exceeds the streaming dimension extent")) return "sb-extent";
  if (has("unroll factor in streaming dimension")) return "sb-unroll";
  if (has("exceeds merged trip count")) return "unroll-support";
  if (has("register spill")) return "register-spill";
  if (has("register file holds")) return "register-file";
  if (has("shared memory")) return "shared-memory";
  return "unknown";
}

bool PropagationResult::value_proven_dead(space::ParamId param,
                                          std::int64_t value) const {
  for (const DeadValue& dv : dead_values) {
    if (dv.param == param && dv.value == value) return true;
  }
  return false;
}

int PropagationResult::region_of(const space::Setting& setting) const {
  const auto it = region_index.find(split_key_of_setting(setting));
  return it == region_index.end() ? -1 : it->second;
}

PropagationResult propagate(const space::SearchSpace& space,
                            const PropagateOptions& options) {
  PropagationResult result;
  const auto& params = space.parameters();
  // Domain masks hold at most 64 values (make_parameters guarantees it).
  for (const Parameter& p : params) CSTUNER_CHECK(p.values.size() <= 64);

  std::vector<RegionState> states;
  for (EnumRegion& region : space_ns::build_regions(space)) {
    RegionState st;
    st.region = std::move(region);
    for (std::size_t p = 0; p < kParamCount; ++p) {
      if (st.region.pinned[p] == 0) {
        st.domains[p] = ValueDomain(params[p], st.region.masks[p]);
      }
    }
    states.push_back(std::move(st));
  }

  // Per-(param, value-index) aggregation of why prunes happened, for the
  // global dead-value certificates.
  std::map<std::pair<std::size_t, std::size_t>, KillRecord> kills;
  const auto record_kill = [&kills](std::size_t p, std::size_t value_index,
                                    const std::string& rule,
                                    const std::string& certificate) {
    KillRecord& rec = kills[{p, value_index}];
    if (rec.regions == 0) {
      rec.rule = rule;
      rec.certificate = certificate;
    }
    ++rec.regions;
  };

  // Per-region arc-consistency fixpoint via minimal witnesses.
  for (RegionState& st : states) {
    const Setting base = base_witness(st);
    if (const auto viol = space.checker().violation(base)) {
      st.empty = true;
      st.empty_reason = *viol;
      ++result.rule_prunes[classify_violation(*viol)];
      continue;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t p = 0; p < kParamCount; ++p) {
        if (st.region.pinned[p] != 0) continue;
        ValueDomain& dom = st.domains[p];
        std::vector<std::int64_t> doomed;
        std::vector<std::pair<std::string, std::string>> why;
        dom.for_each([&](std::int64_t v) {
          if (v == base.get(static_cast<ParamId>(p))) return;  // base valid
          std::string rule;
          std::string reason;
          const auto witness = minimal_witness(
              st, space, static_cast<ParamId>(p), v, &rule, &reason);
          if (witness.has_value()) {
            const auto viol = space.checker().violation(*witness);
            if (!viol.has_value()) return;
            rule = classify_violation(*viol);
            std::ostringstream os;
            os << space_ns::param_name(static_cast<ParamId>(p)) << '=' << v
               << ": minimal witness fails: " << *viol;
            reason = os.str();
          }
          doomed.push_back(v);
          why.emplace_back(rule, reason);
        });
        for (std::size_t i = 0; i < doomed.size(); ++i) {
          dom.remove(doomed[i]);
          changed = true;
          ++result.rule_prunes[why[i].first];
          record_kill(p, params[p].value_index(doomed[i]), why[i].first,
                      why[i].second);
        }
        // Domains always retain the base value, so they cannot empty out.
        CSTUNER_CHECK(!dom.empty());
      }
    }
  }

  // Publish pruned regions and summaries; exact counts where requested.
  result.regions.reserve(states.size());
  result.region_summaries.reserve(states.size());
  for (RegionState& st : states) {
    for (std::size_t p = 0; p < kParamCount; ++p) {
      if (st.region.pinned[p] == 0) {
        st.region.masks[p] = st.empty ? 0 : st.domains[p].mask();
      }
    }
    RegionSummary summary;
    summary.label = st.region.label();
    summary.empty = st.empty;
    summary.empty_reason = st.empty_reason;
    result.region_summaries.push_back(std::move(summary));
    result.regions.push_back(st.region);
  }
  for (std::size_t r = 0; r < result.regions.size(); ++r) {
    result.region_index[split_key_of_region(result.regions[r])] =
        static_cast<int>(r);
  }
  if (options.compute_counts) {
    const auto count_one = [&](std::size_t r) {
      if (result.region_summaries[r].empty) return;
      result.region_summaries[r].valid_count =
          space_ns::count_region(space, result.regions[r]);
    };
    if (options.pool != nullptr) {
      options.pool->parallel_for(result.regions.size(), count_one);
    } else {
      for (std::size_t r = 0; r < result.regions.size(); ++r) count_one(r);
    }
    for (const RegionSummary& summary : result.region_summaries) {
      result.valid_count += summary.valid_count;
    }
  }

  // Live masks: union of pins and surviving free values over non-empty
  // regions.
  for (std::size_t r = 0; r < result.regions.size(); ++r) {
    if (result.region_summaries[r].empty) continue;
    const EnumRegion& region = result.regions[r];
    for (std::size_t p = 0; p < kParamCount; ++p) {
      if (region.pinned[p] != 0) {
        result.live_masks[p] |=
            std::uint64_t{1} << params[p].value_index(region.pinned[p]);
      } else {
        result.live_masks[p] |= region.masks[p];
      }
    }
  }

  // Global dead values with certificates.
  for (std::size_t p = 0; p < kParamCount; ++p) {
    for (std::size_t i = 0; i < params[p].values.size(); ++i) {
      if (((result.live_masks[p] >> i) & 1U) != 0) continue;
      DeadValue dv;
      dv.param = static_cast<ParamId>(p);
      dv.value = params[p].values[i];
      const auto kill = kills.find({p, i});
      if (kill != kills.end()) {
        dv.rule = kill->second.rule;
        std::ostringstream os;
        os << "dead in every region; e.g. " << kill->second.certificate;
        dv.certificate = os.str();
      } else {
        // Never free and never pinned by a non-empty region: either the
        // canonical encoding excludes the value outright, or every region
        // pinning it is empty.
        bool pinned_somewhere = false;
        for (std::size_t r = 0; r < result.regions.size(); ++r) {
          if (result.regions[r].pinned[p] !=
              static_cast<std::int64_t>(dv.value)) {
            continue;
          }
          pinned_somewhere = true;
          if (dv.certificate.empty()) {
            std::ostringstream os;
            os << "every region with "
               << space_ns::param_name(static_cast<ParamId>(p)) << '='
               << dv.value << " is infeasible; e.g. ["
               << result.regions[r].label()
               << "]: " << result.region_summaries[r].empty_reason;
            dv.certificate = os.str();
            dv.rule = classify_violation(
                result.region_summaries[r].empty_reason);
          }
        }
        if (!pinned_somewhere) {
          dv.rule = p == idx(space_ns::kTemporal) ? "temporal" : "canonical";
          std::ostringstream os;
          os << space_ns::param_name(static_cast<ParamId>(p)) << '='
             << dv.value
             << " cannot be encoded: excluded by the canonical-form rules";
          dv.certificate = os.str();
          ++result.rule_prunes[dv.rule];
        }
      }
      result.dead_values.push_back(std::move(dv));
    }
  }

  // Jointly-infeasible pairs of individually-live bool/enum values: dead
  // iff no non-empty region pins both.
  const auto value_live = [&result, &params](std::size_t p, std::size_t i) {
    return ((result.live_masks[p] >> i) & 1U) != 0 &&
           i < params[p].values.size();
  };
  for (std::size_t a = 0; a < kParamCount; ++a) {
    if (params[a].kind == space_ns::ParamKind::kPow2) continue;
    for (std::size_t b = a + 1; b < kParamCount; ++b) {
      if (params[b].kind == space_ns::ParamKind::kPow2) continue;
      for (std::size_t i = 0; i < params[a].values.size(); ++i) {
        if (!value_live(a, i)) continue;
        for (std::size_t j = 0; j < params[b].values.size(); ++j) {
          if (!value_live(b, j)) continue;
          const std::int64_t va = params[a].values[i];
          const std::int64_t vb = params[b].values[j];
          bool any_region = false;
          bool any_live = false;
          std::string example;
          for (std::size_t r = 0;
               r < result.regions.size() && !any_live; ++r) {
            if (result.regions[r].pinned[a] != va ||
                result.regions[r].pinned[b] != vb) {
              continue;
            }
            any_region = true;
            if (!result.region_summaries[r].empty) {
              any_live = true;
            } else if (example.empty()) {
              example = "[" + result.regions[r].label() +
                        "]: " + result.region_summaries[r].empty_reason;
            }
          }
          if (any_live) continue;
          DeadPair pair;
          pair.a = static_cast<ParamId>(a);
          pair.value_a = va;
          pair.b = static_cast<ParamId>(b);
          pair.value_b = vb;
          std::ostringstream os;
          if (!any_region) {
            os << "no region encodes "
               << space_ns::param_name(static_cast<ParamId>(a)) << '=' << va
               << " with " << space_ns::param_name(static_cast<ParamId>(b))
               << '=' << vb << " (canonical-form rules)";
          } else {
            os << "every region with the pair is infeasible; e.g. "
               << example;
          }
          pair.certificate = os.str();
          result.dead_pairs.push_back(std::move(pair));
        }
      }
    }
  }

  return result;
}

}  // namespace cstuner::analysis
