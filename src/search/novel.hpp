#pragma once
// The native optimizers of the zoo: simulated annealing, particle swarm,
// differential evolution (a budget-driven variant, unlike the stale-bounded
// OpenTuner port) and a surrogate-guided searcher built on the src/ml random
// forest. All four draw every step from an RNG derived from (seed, step),
// so their proposals are a deterministic function of the seed and the
// results observed so far — which is all journal replay needs to resume
// them bit-identically (tests/test_optimizer_zoo.cpp, *ResumeTest).

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ml/random_forest.hpp"
#include "search/optimizer.hpp"

namespace cstuner::search {

/// Metropolis annealing over a population of independent walkers. Each step
/// moves every walker to an adjacent-value neighbour (one parameter, one
/// index step, like the hill climber's moves) and accepts uphill moves with
/// probability exp(-relative-slowdown / T), T decaying geometrically.
class AnnealOptimizer : public Optimizer {
 public:
  explicit AnnealOptimizer(std::uint64_t seed);

  std::string name() const override { return "anneal"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;

  static constexpr std::size_t kWalkers = 8;

 private:
  std::uint64_t seed_;
  const space::SearchSpace* space_ = nullptr;
  std::vector<space::Setting> current_;
  std::vector<double> current_times_;
};

/// Particle swarm over the continuous value-index space (positions round to
/// the nearest admissible value for evaluation; constraint-invalid rounded
/// positions simply score infinity, which the evaluator reports for free).
class PsoOptimizer : public Optimizer {
 public:
  explicit PsoOptimizer(std::uint64_t seed);

  std::string name() const override { return "pso"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;

  static constexpr std::size_t kParticles = 16;

 private:
  std::uint64_t seed_;
  const space::SearchSpace* space_ = nullptr;
  std::vector<std::uint32_t> cards_;
  std::vector<std::vector<double>> positions_;
  std::vector<std::vector<double>> velocities_;
  std::vector<std::vector<double>> pbest_pos_;
  std::vector<double> pbest_times_;
  std::vector<double> gbest_pos_;
  double gbest_time_ = 0.0;
};

/// DE/best/1/bin over the value-index space. Runs until the budget ends —
/// the cache makes replayed settings free, so unlike the OpenTuner port it
/// never declares itself exhausted.
class NativeDeOptimizer : public Optimizer {
 public:
  explicit NativeDeOptimizer(std::uint64_t seed);

  std::string name() const override { return "de"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;

  static constexpr std::size_t kPopulation = 24;

 private:
  std::uint64_t seed_;
  const space::SearchSpace* space_ = nullptr;
  std::vector<std::uint32_t> cards_;
  std::vector<std::vector<double>> positions_;
  std::vector<double> times_;
  std::vector<std::vector<double>> trials_;
};

/// Surrogate-guided search: fits a fresh random-forest regressor over the
/// measured history each step (log-time target), scores a candidate pool —
/// half uniform random, half adjacent-mutations of the elite — by expected
/// improvement over the incumbent, and proposes the top scorers. The
/// history (finite measurements only, capped) is the whole model state.
class SurrogateOptimizer : public Optimizer {
 public:
  explicit SurrogateOptimizer(std::uint64_t seed);

  std::string name() const override { return "surrogate"; }
  void bind(tuner::Evaluator& evaluator) override;
  std::vector<space::Setting> propose() override;
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override;

  static constexpr std::size_t kInitBatch = 32;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kPool = 192;
  static constexpr std::size_t kElites = 8;
  static constexpr std::size_t kMinHistory = 16;
  static constexpr std::size_t kHistoryCap = 512;

 private:
  std::uint64_t seed_;
  const space::SearchSpace* space_ = nullptr;
  /// Finite measurements only; `seen_` holds their dedup keys.
  std::vector<std::pair<space::Setting, double>> history_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace cstuner::search
