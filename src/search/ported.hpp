#pragma once
// The legacy searchers, re-expressed as step machines behind the
// search::Optimizer interface. Every port reproduces its pre-refactor loop
// exactly — same RNG draw order, same batch composition, same iteration
// marks, same stop-check boundaries — so on a fixed seed it lands on the
// same best setting, virtual time and unique-evaluation count as the
// original tuner (pinned by tests/test_optimizer_zoo.cpp).
//
// All ports resume by journal replay: a fresh instance driven against a
// journal-loaded evaluator replays its deterministic control flow, with the
// journaled measurements served back (docs/fault-tolerance.md). They do not
// implement restore_state.

#include <cstdint>
#include <optional>

#include "analysis/pruner.hpp"
#include "baselines/artemis.hpp"
#include "baselines/garvey.hpp"
#include "baselines/subspace.hpp"
#include "ga/island_ga.hpp"
#include "ml/random_forest.hpp"
#include "search/optimizer.hpp"
#include "space/lazy_universe.hpp"

namespace cstuner::search {

/// Serial step-machine equivalent of the concurrent island GA (and of the
/// OpenTuner global-GA baseline, which wraps it). Islands breed in rank
/// order from per-rank RNG streams — the same streams the concurrent
/// version uses — and a whole generation across all islands is measured as
/// one batch: per-setting results are pure, clock charges are commutative
/// integers, and duplicate keys are charged once either way, so the merged
/// batch is bit-equivalent to the original concurrent per-island batches.
class IslandGaOptimizer : public Optimizer {
 public:
  IslandGaOptimizer(std::string name, ga::GaOptions ga, std::uint64_t seed);

  std::string name() const override { return name_; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  /// The original marks once per generation (inside should_stop), never
  /// after the initial population.
  bool iteration_boundary() const override { return mark_; }
  /// The original's first stop consult happens after generation 1; nothing
  /// guards the initial population or the gen-1 breeding.
  bool stop_check_allowed() const override { return gens_done_ >= 1; }

 private:
  struct Island {
    Rng rng{0};
    std::vector<ga::Genome> genomes;
    std::vector<double> fitnesses;
  };

  /// Converts one island's pending genomes to pruned candidates, appending
  /// to `batch` and recording each slot's batch index (-1 = pruned).
  void encode_island(std::size_t r, std::vector<space::Setting>& batch);

  std::string name_;
  ga::GaOptions ga_;
  std::uint64_t seed_;

  const space::SearchSpace* space_ = nullptr;
  std::optional<analysis::StaticPruner> pruner_;
  std::vector<std::uint32_t> cards_;
  std::vector<Island> islands_;
  /// Offspring awaiting fitness, per island, plus each slot's index into
  /// the proposed batch (-1 when the pruner rejected it).
  std::vector<std::vector<ga::Genome>> pending_;
  std::vector<std::vector<std::ptrdiff_t>> slot_index_;
  bool initialized_ = false;
  bool mark_ = false;
  std::size_t gens_done_ = 0;
};

/// OpenTuner's greedy hill climber (baselines::OpenTunerTechnique::
/// kHillClimber) as a step machine: one current point, a batch of adjacent
/// one-parameter moves per iteration, random restart on local optima.
class HillClimbOptimizer : public Optimizer {
 public:
  HillClimbOptimizer(ga::GaOptions ga, std::uint64_t seed);

  std::string name() const override { return "hill"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool iteration_boundary() const override { return mark_; }
  bool stop_check_allowed() const override { return allow_stop_; }

 private:
  enum class Phase { kStart, kMoves, kRestart };

  std::uint64_t seed_;
  int moves_per_iteration_;

  const space::SearchSpace* space_ = nullptr;
  Rng rng_{0};
  Phase phase_ = Phase::kStart;
  space::Setting current_;
  double current_time_ = 0.0;
  bool mark_ = false;
  bool allow_stop_ = false;
};

/// OpenTuner's DE/rand/1/bin (baselines::OpenTunerTechnique::
/// kDifferentialEvolution) as a step machine, including its stale-
/// generation exhaustion rule.
class OpenTunerDeOptimizer : public Optimizer {
 public:
  OpenTunerDeOptimizer(ga::GaOptions ga, std::uint64_t seed);

  std::string name() const override { return "opentuner-de"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool iteration_boundary() const override { return mark_; }
  bool stop_check_allowed() const override { return allow_stop_; }

 private:
  std::uint64_t seed_;
  std::size_t pop_size_;

  const space::SearchSpace* space_ = nullptr;
  tuner::Evaluator* evaluator_ = nullptr;
  std::optional<analysis::StaticPruner> pruner_;
  std::vector<std::uint32_t> cards_;
  Rng rng_{0};
  bool seeded_ = false;
  std::vector<std::vector<double>> population_;
  std::vector<double> times_;
  std::vector<std::vector<double>> trials_;
  std::vector<std::size_t> kept_pos_;
  std::size_t evals_before_ = 0;
  int stale_generations_ = 0;
  bool mark_ = false;
  bool allow_stop_ = false;
};

/// Garvey & Abdelrahman as a step machine: the offline stages (dataset
/// collection, forest fit, memory-flag choice) run at bind(); the per-group
/// sampled-exhaustive sweeps then flow through propose/observe one
/// iteration-sized chunk at a time. Group combos are enumerated lazily at
/// the same control-flow points as the original, so the RNG stream never
/// diverges from it.
class GarveyOptimizer : public Optimizer {
 public:
  explicit GarveyOptimizer(baselines::GarveyOptions options);

  std::string name() const override { return "garvey"; }
  /// Trains the forest on `dataset` instead of collecting one at bind(), so
  /// method comparisons can share csTuner's dataset.
  void set_dataset(tuner::PerfDataset dataset);
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool iteration_boundary() const override { return mark_; }
  bool stop_check_allowed() const override { return allow_stop_; }

 private:
  baselines::GarveyOptions options_;
  std::optional<tuner::PerfDataset> preset_dataset_;

  const space::SearchSpace* space_ = nullptr;
  Rng rng_{0};
  std::vector<std::vector<space::ParamId>> groups_;
  space::Setting base_;
  bool base_proposed_ = false;
  std::size_t group_idx_ = 0;
  bool combos_ready_ = false;
  std::vector<baselines::Combo> combos_;
  std::size_t cursor_ = 0;
  std::size_t chunk_start_ = 0;
  baselines::Combo best_combo_;
  double best_time_ = 0.0;
  bool mark_ = false;
  bool allow_stop_ = false;
};

/// Artemis as a step machine: seed batch, then strictly per-eval stage
/// sweeps with an iteration mark every evals_per_iteration evaluations and
/// a trailing mark at finish() — exactly the original's cadence.
class ArtemisOptimizer : public Optimizer {
 public:
  explicit ArtemisOptimizer(baselines::ArtemisOptions options);

  std::string name() const override { return "artemis"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool iteration_boundary() const override { return mark_; }
  bool stop_check_allowed() const override { return allow_stop_; }
  void finish(tuner::Evaluator& evaluator) override;

 private:
  struct Candidate {
    space::Setting setting;
    double time_ms = 0.0;
  };

  void close_stage();

  baselines::ArtemisOptions options_;

  const space::SearchSpace* space_ = nullptr;
  Rng rng_{0};
  std::vector<std::vector<space::ParamId>> stages_;
  bool seeded_ = false;
  std::vector<Candidate> survivors_;
  std::vector<Candidate> pool_;
  std::size_t stage_idx_ = 0;
  std::size_t cand_idx_ = 0;
  std::size_t combo_idx_ = 0;
  bool stage_open_ = false;
  bool combos_ready_ = false;
  std::vector<baselines::Combo> combos_;
  std::size_t combos_per_candidate_ = 0;
  std::size_t since_mark_ = 0;
  bool mark_ = false;
  bool allow_stop_ = false;
};

/// Pure random-valid sampling, one fixed-size batch per step. Each step
/// draws from an RNG derived from (seed, step), so the whole state is the
/// step counter — restore_state resumes mid-run exactly.
class RandomOptimizer : public Optimizer {
 public:
  explicit RandomOptimizer(std::uint64_t seed);

  std::string name() const override { return "random"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool restore_state(const JsonValue& state) override;

  static constexpr std::size_t kBatch = 32;

 private:
  std::uint64_t seed_;
  const space::SearchSpace* space_ = nullptr;
};

/// Deterministic spread sample of the valid universe, consumed through a
/// space::LazyUniverse cursor in fixed-size batches; exhausts when the
/// sample is drained. State is the step counter (the sample itself is a
/// pure function of the space and seed), so restore_state resumes exactly.
class SpreadOptimizer : public Optimizer {
 public:
  explicit SpreadOptimizer(std::uint64_t seed,
                           std::size_t sample_size = kDefaultSample);

  std::string name() const override { return "spread"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;
  bool restore_state(const JsonValue& state) override;

  static constexpr std::size_t kBatch = 32;
  static constexpr std::size_t kDefaultSample = 4096;

 private:
  std::uint64_t seed_;
  std::size_t sample_size_;
  std::vector<space::Setting> sample_;
  bool sampled_ = false;
};

}  // namespace cstuner::search
