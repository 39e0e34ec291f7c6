#pragma once
// Name -> factory registry for the optimizer zoo. The global registry ships
// with every built-in optimizer pre-registered; downstream code can add its
// own (docs/optimizers.md, "Registering a new optimizer").

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cs_tuner.hpp"
#include "ga/island_ga.hpp"
#include "search/optimizer.hpp"

namespace cstuner::search {

/// Knobs shared across factories. Per-optimizer parameters keep their
/// searcher's historical defaults; only the cross-cutting ones are here.
struct OptimizerOptions {
  std::uint64_t seed = 21;
  /// GA shape (population/crossover/migration) for the GA-family ports;
  /// also sizes the OpenTuner hill/DE populations, as in the baselines.
  ga::GaOptions ga;
};

class OptimizerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Optimizer>(const OptimizerOptions&)>;

  /// Registers (or replaces) a factory under `name`.
  void add(const std::string& name, Factory factory);

  /// Instantiates by name. Throws UsageError — listing every registered
  /// name — when the name is unknown or the registry is empty, so the CLI
  /// error message always tells the user what they can ask for.
  std::unique_ptr<Optimizer> make(const std::string& name,
                                  const OptimizerOptions& options = {}) const;

  bool contains(const std::string& name) const;
  /// Registered names, sorted (the registry iterates deterministically).
  std::vector<std::string> names() const;
  std::size_t size() const { return factories_.size(); }

 private:
  std::map<std::string, Factory> factories_;
};

/// The process-wide registry, populated with the built-in zoo on first use:
/// the ported searchers (island-ga, opentuner-ga, opentuner-de, hill,
/// garvey, artemis, random, spread) and the native ones (anneal, pso, de,
/// surrogate).
OptimizerRegistry& optimizer_registry();

/// A registry optimizer behind the tuner::Tuner interface. tune() restores
/// the optimizer's native state from the evaluator's loaded checkpoint when
/// it can (otherwise the journal replays), then drives it with
/// run_optimizer.
class OptimizerTuner : public tuner::Tuner {
 public:
  explicit OptimizerTuner(std::unique_ptr<Optimizer> optimizer);

  std::string name() const override { return optimizer_->name(); }
  void tune(tuner::Evaluator& evaluator,
            const tuner::StopCriteria& stop) override;

  Optimizer& optimizer() { return *optimizer_; }

 private:
  std::unique_ptr<Optimizer> optimizer_;
};

/// The one method dispatch: "csTuner" is core::CsTuner with `options`; any
/// other name is that registry optimizer (with "opentuner", the wire name
/// of the paper's OpenTuner baseline, meaning "opentuner-ga") seeded from
/// `options.seed` and shaped by `options.ga`. Throws UsageError listing
/// every accepted name when `name` is unknown.
std::unique_ptr<tuner::Tuner> make_tuner(const std::string& name,
                                         const core::CsTunerOptions& options);

/// Hands comparison-wide offline artifacts to a make_tuner() result, so
/// methods compare on equal footing: csTuner takes the dataset and the
/// candidate universe, garvey trains its forest on the dataset, and every
/// other method ignores both.
void share_artifacts(tuner::Tuner& tuner, const tuner::PerfDataset& dataset,
                     const std::vector<space::Setting>& universe);

}  // namespace cstuner::search
