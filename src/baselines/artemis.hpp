#pragma once
// Artemis baseline [38]: hierarchical auto-tuning driven by expert
// knowledge. High-impact optimizations are tuned first; after each stage
// only a few high-performance candidates survive into the next stage, which
// refines the lower-impact parameters around each survivor.
//
// Every method name runs search::ArtemisOptimizer; this loop stays only as
// the reference its regression pins compare against.

#include "tuner/evaluator.hpp"

namespace cstuner::baselines {

struct ArtemisOptions {
  std::size_t survivors = 4;        ///< candidates kept after each stage
  std::size_t max_stage_combos = 512;  ///< combos examined per stage
  int evals_per_iteration = 32;     ///< = GA population size, for fairness
  std::uint64_t seed = 17;
};

class Artemis : public tuner::Tuner {
 public:
  explicit Artemis(ArtemisOptions options = {});

  std::string name() const override { return "Artemis"; }
  void tune(tuner::Evaluator& evaluator,
            const tuner::StopCriteria& stop) override;

 private:
  ArtemisOptions options_;
};

}  // namespace cstuner::baselines
