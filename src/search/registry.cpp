#include "search/registry.hpp"

#include <utility>

#include "baselines/artemis.hpp"
#include "baselines/garvey.hpp"
#include "common/error.hpp"
#include "search/novel.hpp"
#include "search/ported.hpp"
#include "tuner/checkpoint.hpp"

namespace cstuner::search {

namespace {

std::string joined(const std::vector<std::string>& names) {
  if (names.empty()) return "none";
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

void OptimizerRegistry::add(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<Optimizer> OptimizerRegistry::make(
    const std::string& name, const OptimizerOptions& options) const {
  if (factories_.empty()) {
    throw UsageError("no optimizers registered (available: none)");
  }
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw UsageError("unknown optimizer '" + name +
                     "' (available: " + joined(names()) + ")");
  }
  return it->second(options);
}

bool OptimizerRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> OptimizerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

OptimizerRegistry& optimizer_registry() {
  static OptimizerRegistry registry = [] {
    OptimizerRegistry r;
    // --- Ported searchers (pinned against their originals).
    r.add("island-ga", [](const OptimizerOptions& o) {
      // The zoo's island entry runs a wider archipelago than the OpenTuner
      // wrapper so the two GA entries genuinely differ.
      ga::GaOptions ga = o.ga;
      ga.sub_populations = 4;
      return std::make_unique<IslandGaOptimizer>("island-ga", ga, o.seed);
    });
    r.add("opentuner-ga", [](const OptimizerOptions& o) {
      return std::make_unique<IslandGaOptimizer>("opentuner-ga", o.ga,
                                                 o.seed);
    });
    r.add("hill", [](const OptimizerOptions& o) {
      return std::make_unique<HillClimbOptimizer>(o.ga, o.seed);
    });
    r.add("opentuner-de", [](const OptimizerOptions& o) {
      return std::make_unique<OpenTunerDeOptimizer>(o.ga, o.seed);
    });
    r.add("garvey", [](const OptimizerOptions& o) {
      baselines::GarveyOptions options;
      options.seed = o.seed;
      return std::make_unique<GarveyOptimizer>(options);
    });
    r.add("artemis", [](const OptimizerOptions& o) {
      baselines::ArtemisOptions options;
      options.seed = o.seed;
      return std::make_unique<ArtemisOptimizer>(options);
    });
    r.add("random", [](const OptimizerOptions& o) {
      return std::make_unique<RandomOptimizer>(o.seed);
    });
    r.add("spread", [](const OptimizerOptions& o) {
      return std::make_unique<SpreadOptimizer>(o.seed);
    });
    // --- Native optimizers.
    r.add("anneal", [](const OptimizerOptions& o) {
      return std::make_unique<AnnealOptimizer>(o.seed);
    });
    r.add("pso", [](const OptimizerOptions& o) {
      return std::make_unique<PsoOptimizer>(o.seed);
    });
    r.add("de", [](const OptimizerOptions& o) {
      return std::make_unique<NativeDeOptimizer>(o.seed);
    });
    r.add("surrogate", [](const OptimizerOptions& o) {
      return std::make_unique<SurrogateOptimizer>(o.seed);
    });
    return r;
  }();
  return registry;
}

OptimizerTuner::OptimizerTuner(std::unique_ptr<Optimizer> optimizer)
    : optimizer_(std::move(optimizer)) {}

void OptimizerTuner::tune(tuner::Evaluator& evaluator,
                          const tuner::StopCriteria& stop) {
  // Natively-checkpointable optimizers continue from the snapshot; the
  // rest decline and resume by journal replay.
  if (const tuner::Checkpoint* cp = evaluator.checkpoint();
      cp != nullptr && cp->loaded_optimizer_state().has_value()) {
    optimizer_->restore_state(*cp->loaded_optimizer_state());
  }
  run_optimizer(*optimizer_, evaluator, stop);
}

std::unique_ptr<tuner::Tuner> make_tuner(const std::string& name,
                                         const core::CsTunerOptions& options) {
  if (name == "csTuner") return std::make_unique<core::CsTuner>(options);
  const std::string optimizer = name == "opentuner" ? "opentuner-ga" : name;
  const OptimizerRegistry& registry = optimizer_registry();
  if (!registry.contains(optimizer)) {
    std::vector<std::string> names = {"csTuner", "opentuner"};
    for (const auto& n : registry.names()) names.push_back(n);
    throw UsageError("unknown method '" + name + "' (available: " +
                     joined(names) + ")");
  }
  return std::make_unique<OptimizerTuner>(
      registry.make(optimizer, {.seed = options.seed, .ga = options.ga}));
}

void share_artifacts(tuner::Tuner& tuner, const tuner::PerfDataset& dataset,
                     const std::vector<space::Setting>& universe) {
  if (auto* cs = dynamic_cast<core::CsTuner*>(&tuner)) {
    cs->set_dataset(dataset);
    cs->set_universe(universe);
  } else if (auto* wrapped = dynamic_cast<OptimizerTuner*>(&tuner)) {
    if (auto* garvey = dynamic_cast<GarveyOptimizer*>(&wrapped->optimizer())) {
      garvey->set_dataset(dataset);
    }
  }
}

}  // namespace cstuner::search
