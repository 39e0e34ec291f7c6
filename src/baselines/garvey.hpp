#pragma once
// Garvey & Abdelrahman baseline [13], re-implemented from its description as
// the paper did: (1) a random forest predicts the best memory-type
// configuration (shared/constant flags) for the stencil, (2) the remaining
// parameters are grouped *by dimension* (the expert-knowledge grouping the
// paper contrasts with csTuner's statistical grouping), and (3) each group
// is searched exhaustively over a random sample of its value combinations
// (the paper's configured "optimization of grouping by dimension ...
// sampling ratio also set to 10%").
//
// Every method name runs search::GarveyOptimizer; this loop stays only as
// the reference its regression pins compare against.

#include <optional>

#include "ml/random_forest.hpp"
#include "tuner/dataset.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::baselines {

struct GarveyOptions {
  double sampling_ratio = 0.10;   ///< of each group's cartesian size
  std::size_t dataset_size = 128; ///< forest training set
  /// Enumeration cap per group before the sampling ratio applies. Keeps a
  /// group's exhaustive stage to a handful of iterations, matching the
  /// quick-but-unstable convergence the paper observes for Garvey.
  std::size_t max_group_combos = 2048;
  int evals_per_iteration = 32;   ///< = GA population size, for fairness
  ml::ForestConfig forest;
  std::uint64_t seed = 13;
};

class Garvey : public tuner::Tuner {
 public:
  explicit Garvey(GarveyOptions options = {});

  std::string name() const override { return "Garvey"; }
  void tune(tuner::Evaluator& evaluator,
            const tuner::StopCriteria& stop) override;

  /// Inject a shared dataset (fair comparisons reuse csTuner's).
  void set_dataset(tuner::PerfDataset dataset);

  /// Memory flags chosen by the forest in the latest run (for tests).
  std::pair<std::int64_t, std::int64_t> chosen_memory_flags() const {
    return chosen_memory_;
  }

 private:
  GarveyOptions options_;
  std::optional<tuner::PerfDataset> preset_dataset_;
  std::pair<std::int64_t, std::int64_t> chosen_memory_{1, 1};
};

}  // namespace cstuner::baselines
