#pragma once
// csTuner (§IV): the full auto-tuning pipeline — performance dataset,
// CV-based parameter grouping, PCC metric combination, PMNF-guided space
// sampling, group re-indexing, and iterative per-group evolutionary search
// with CV(top-n) approximation. Degenerates to exhaustive search for groups
// smaller than the GA population, as the paper specifies.

#include <optional>

#include "core/approx.hpp"
#include "core/reindex.hpp"
#include "core/sampling.hpp"
#include "ga/island_ga.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::core {

/// Ablation switches: each replaces one csTuner component with the naive
/// alternative the paper argues against (used by bench_ablation).
enum class GroupingMode {
  kStatistical,  ///< CV + Algorithm 1 (the paper's method)
  kSingleton,    ///< no grouping: every parameter alone
  kByDimension,  ///< Garvey-style expert grouping by grid dimension
};

enum class SamplingMode {
  kPmnf,    ///< PMNF-model-guided filtering (the paper's method)
  kRandom,  ///< uniform random subset of the universe
};

struct CsTunerOptions {
  std::size_t dataset_size = 128;    ///< §V-A2
  std::size_t universe_size = 20000; ///< candidate universe (DESIGN.md §5)
  SamplingConfig sampling;           ///< ratio 10%, 4 metric collections
  ga::GaOptions ga;                  ///< 2 x 16, crossover .8, mutation .005
  ApproxConfig approx;
  GroupingMode grouping_mode = GroupingMode::kStatistical;
  SamplingMode sampling_mode = SamplingMode::kPmnf;
  /// CV(top-n)-based early stop per group (§IV-E); false = every group runs
  /// the full max_generations, the manual-cap regime the paper replaces.
  bool use_approximation = true;
  /// Emit CUDA source for every sampled setting during pre-processing.
  /// The paper always does this; benches that do not consume the source
  /// text leave it off (the virtual clock already charges per-variant
  /// compile cost at evaluation time). Fig. 12 turns it on.
  bool generate_kernels = false;
  std::uint64_t seed = 7;
};

/// Wall-clock breakdown of the pre-processing stages (Fig. 12) plus the
/// artifacts the pipeline produced.
struct PreprocessReport {
  double dataset_s = 0.0;   ///< offline metric collection (not in Fig. 12)
  double grouping_s = 0.0;
  double sampling_s = 0.0;  ///< metric combination + PMNF + filtering
  double codegen_s = 0.0;   ///< writing sampled settings into CUDA kernels
  stats::Groups groups;
  std::vector<MetricModel> models;
  std::size_t universe_count = 0;
  std::size_t sampled_count = 0;
  std::size_t generated_kernel_bytes = 0;
  /// Exact valid-setting count of the whole space (0 when the universe was
  /// preset).
  std::uint64_t universe_exact_count = 0;
};

class CsTuner : public tuner::Tuner {
 public:
  explicit CsTuner(CsTunerOptions options = {});

  std::string name() const override { return "csTuner"; }
  void tune(tuner::Evaluator& evaluator,
            const tuner::StopCriteria& stop) override;

  /// Artifacts and timings of the most recent tune() call.
  const PreprocessReport& report() const { return report_; }

  /// Benches that compare methods on equal footing inject a shared dataset
  /// and/or candidate universe instead of re-sampling.
  void set_dataset(tuner::PerfDataset dataset);
  void set_universe(std::vector<space::Setting> universe);

 private:
  CsTunerOptions options_;
  PreprocessReport report_;
  std::optional<tuner::PerfDataset> preset_dataset_;
  std::optional<std::vector<space::Setting>> preset_universe_;
};

}  // namespace cstuner::core
