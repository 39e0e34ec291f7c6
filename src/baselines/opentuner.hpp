#pragma once
// OpenTuner baseline [3], as configured in the paper's evaluation: a global
// genetic algorithm over the *entire* parameter space (one gene per Table I
// parameter, no grouping, no sampling), with GA options matching csTuner's.
// Two extra OpenTuner-style search techniques — greedy hill climbing and
// differential evolution — are provided for the extension benchmarks.
//
// Every method name runs the search:: ports (opentuner-ga, hill,
// opentuner-de); these loops stay only as the reference their regression
// pins compare against.

#include "ga/island_ga.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::baselines {

enum class OpenTunerTechnique {
  kGlobalGa,              ///< the paper's configuration (§V-A2)
  kHillClimber,
  kDifferentialEvolution,
};

struct OpenTunerOptions {
  OpenTunerTechnique technique = OpenTunerTechnique::kGlobalGa;
  ga::GaOptions ga;  ///< population layout shared by all techniques
  std::uint64_t seed = 11;
};

class OpenTuner : public tuner::Tuner {
 public:
  explicit OpenTuner(OpenTunerOptions options = {});

  std::string name() const override;
  void tune(tuner::Evaluator& evaluator,
            const tuner::StopCriteria& stop) override;

 private:
  void tune_global_ga(tuner::Evaluator& evaluator,
                      const tuner::StopCriteria& stop);
  void tune_hill_climber(tuner::Evaluator& evaluator,
                         const tuner::StopCriteria& stop);
  void tune_differential_evolution(tuner::Evaluator& evaluator,
                                   const tuner::StopCriteria& stop);

  OpenTunerOptions options_;
};

}  // namespace cstuner::baselines
