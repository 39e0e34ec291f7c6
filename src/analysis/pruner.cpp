#include "analysis/pruner.hpp"

namespace cstuner::analysis {

void StaticPruner::set_domains(
    std::shared_ptr<const PropagationResult> domains) {
  std::lock_guard<std::mutex> lock(mutex_);
  domains_ = std::move(domains);
}

bool StaticPruner::domain_rejects(const PropagationResult& domains,
                                  const space::Setting& canonical) const {
  const int r = domains.region_of(canonical);
  // No region encodes the split-parameter combination: the canonical-form
  // or temporal rules reject it.
  if (r < 0) return true;
  const auto region_index = static_cast<std::size_t>(r);
  const space::EnumRegion& region = domains.regions[region_index];
  if (domains.region_summaries[region_index].empty) return true;
  const auto& params = space_.parameters();
  for (std::size_t p = 0; p < space::kParamCount; ++p) {
    const auto id = static_cast<space::ParamId>(p);
    if (region.pinned[p] != 0) {
      // Pins beyond the split key (rule 4 / rule 2 collapses) are necessary
      // conditions for membership.
      if (canonical.get(id) != region.pinned[p]) return true;
    } else {
      // A value pruned from the region's domain is proven dead there. An
      // inadmissible value is not in the list at all — leave it to the full
      // check's rule 0 for the canonical diagnostic path.
      const auto& values = params[p].values;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] != canonical.get(id)) continue;
        if (((region.masks[p] >> i) & 1U) == 0) return true;
        break;
      }
    }
  }
  return false;
}

bool StaticPruner::is_valid(const space::Setting& setting) {
  const space::Setting canonical = space_.checker().canonicalized(setting);
  const std::uint64_t key = canonical.hash();
  std::shared_ptr<const PropagationResult> domains;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.checked;
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++stats_.memo_hits;
      if (!it->second) ++stats_.pruned;
      return it->second;
    }
    domains = domains_;
  }
  if (domains != nullptr && domain_rejects(*domains, canonical)) {
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.emplace(key, false);
    ++stats_.pruned;
    ++stats_.domain_pruned;
    return false;
  }
  const bool valid = space_.checker().is_valid(canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.emplace(key, valid);
  if (!valid) ++stats_.pruned;
  return valid;
}

std::vector<char> StaticPruner::filter(
    const std::vector<space::Setting>& settings) {
  std::vector<char> keep(settings.size(), 0);
  for (std::size_t i = 0; i < settings.size(); ++i) {
    keep[i] = is_valid(settings[i]) ? 1 : 0;
  }
  return keep;
}

std::size_t StaticPruner::prune(std::vector<space::Setting>& settings) {
  const std::size_t before = settings.size();
  std::size_t out = 0;
  for (std::size_t i = 0; i < settings.size(); ++i) {
    if (is_valid(settings[i])) settings[out++] = settings[i];
  }
  settings.resize(out);
  return before - out;
}

StaticPruner::Stats StaticPruner::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace cstuner::analysis
