#include "baselines/opentuner.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/subspace.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace cstuner::baselines {

using space::kParamCount;
using space::ParamId;
using space::Setting;

OpenTuner::OpenTuner(OpenTunerOptions options) : options_(options) {}

std::string OpenTuner::name() const {
  switch (options_.technique) {
    case OpenTunerTechnique::kGlobalGa:
      return "OpenTuner";
    case OpenTunerTechnique::kHillClimber:
      return "OpenTuner/hill";
    case OpenTunerTechnique::kDifferentialEvolution:
      return "OpenTuner/de";
  }
  return "OpenTuner";
}

void OpenTuner::tune(tuner::Evaluator& evaluator,
                     const tuner::StopCriteria& stop) {
  CSTUNER_TRACE_PHASE("tune.opentuner");
  switch (options_.technique) {
    case OpenTunerTechnique::kGlobalGa:
      return tune_global_ga(evaluator, stop);
    case OpenTunerTechnique::kHillClimber:
      return tune_hill_climber(evaluator, stop);
    case OpenTunerTechnique::kDifferentialEvolution:
      return tune_differential_evolution(evaluator, stop);
  }
}

void OpenTuner::tune_global_ga(tuner::Evaluator& evaluator,
                               const tuner::StopCriteria& stop) {
  const auto& space = evaluator.space();
  ga::GaOptions ga_options = options_.ga;
  ga_options.seed = options_.seed;
  // Seed with valid configurations (any practical tuner starts from
  // launchable kernels); evolution itself explores the raw space.
  ga_options.initializer = [&space](Rng& rng) {
    return setting_to_genome(space, space.random_valid(rng));
  };
  ga::IslandGa island(parameter_cardinalities(space), ga_options);
  // OpenTuner breeds plenty of constraint-invalid genomes; the evaluator
  // scores them infinity without charging anything.
  auto evaluate = [&](const std::vector<ga::Genome>& genomes) {
    std::vector<Setting> candidates;
    candidates.reserve(genomes.size());
    for (const auto& genome : genomes) {
      candidates.push_back(genome_to_setting(space, genome));
    }
    const auto results = evaluator.evaluate_batch(candidates);
    std::vector<double> fitnesses(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      fitnesses[i] = fitness_of(results[i].time_or_inf());
    }
    return fitnesses;
  };
  auto should_stop = [&](const ga::GaState&) {
    evaluator.mark_iteration();
    return stop.reached(evaluator);
  };
  island.run(evaluate, should_stop);
}

void OpenTuner::tune_hill_climber(tuner::Evaluator& evaluator,
                                  const tuner::StopCriteria& stop) {
  const auto& space = evaluator.space();
  Rng rng(options_.seed);
  Setting current = space.random_valid(rng);
  double current_time = evaluator.evaluate(current);
  const int moves_per_iteration =
      options_.ga.sub_populations * options_.ga.population_size;

  while (!stop.reached(evaluator)) {
    // Generate the whole move set first (the moves depend only on `current`
    // and the RNG, not on each other's results), then measure it as one
    // batch across the pool.
    std::vector<Setting> neighbors;
    neighbors.reserve(static_cast<std::size_t>(moves_per_iteration));
    for (int m = 0; m < moves_per_iteration; ++m) {
      // One-parameter move to an adjacent admissible value.
      Setting neighbor = current;
      const auto pid =
          static_cast<ParamId>(rng.index(kParamCount));
      const auto& p = space.parameter(pid);
      const std::size_t idx = p.value_index(neighbor.get(pid));
      const std::size_t next =
          (idx == 0 || rng.bernoulli(0.5))
              ? std::min(idx + 1, p.cardinality() - 1)
              : idx - 1;
      neighbor.set(pid, p.values[next]);
      neighbors.push_back(space.checker().repaired(neighbor));
    }
    const auto results = evaluator.evaluate_batch(neighbors);
    Setting best_neighbor = current;
    double best_time = current_time;
    for (std::size_t m = 0; m < results.size(); ++m) {
      if (results[m].time_or_inf() < best_time) {
        best_time = results[m].time_or_inf();
        best_neighbor = neighbors[m];
      }
    }
    evaluator.mark_iteration();
    if (best_time < current_time) {
      current = best_neighbor;
      current_time = best_time;
    } else {
      // Local optimum: random restart, the OpenTuner escape hatch.
      current = space.random_valid(rng);
      current_time = evaluator.evaluate(current);
    }
  }
}

void OpenTuner::tune_differential_evolution(
    tuner::Evaluator& evaluator, const tuner::StopCriteria& stop) {
  const auto& space = evaluator.space();
  Rng rng(options_.seed);
  const auto cards = parameter_cardinalities(space);
  const std::size_t pop_size = static_cast<std::size_t>(
      options_.ga.sub_populations * options_.ga.population_size);
  constexpr double kF = 0.5;   // differential weight
  constexpr double kCr = 0.9;  // crossover probability

  // Population over continuous index space (rounded for evaluation).
  std::vector<std::vector<double>> population(pop_size);
  std::vector<double> times(pop_size);
  auto vec_to_setting = [&](const std::vector<double>& v) {
    ga::Genome genome(kParamCount);
    for (std::size_t i = 0; i < kParamCount; ++i) {
      const double clamped = std::clamp(
          v[i], 0.0, static_cast<double>(cards[i] - 1));
      genome[i] = static_cast<std::uint32_t>(std::lround(clamped));
    }
    return genome_to_setting(space, genome);
  };
  {
    std::vector<Setting> seeds;
    seeds.reserve(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i) {
      // Seed from valid configurations; evolution explores the raw space.
      const Setting seed_setting = space.random_valid(rng);
      population[i].resize(kParamCount);
      for (std::size_t d = 0; d < kParamCount; ++d) {
        const auto& p = space.parameters()[d];
        population[i][d] = static_cast<double>(
            p.value_index(seed_setting.get(static_cast<ParamId>(d))));
      }
      seeds.push_back(vec_to_setting(population[i]));
    }
    const auto seed_results = evaluator.evaluate_batch(seeds);
    times.resize(seed_results.size());
    for (std::size_t i = 0; i < seed_results.size(); ++i) {
      times[i] = seed_results[i].time_or_inf();
    }
  }
  evaluator.mark_iteration();

  // Stop once the population has stopped discovering new settings for a
  // while: further generations would only replay cached evaluations.
  // Generation-synchronous DE: all trials are bred from the
  // generation-start population, measured as one batch, then selection
  // runs sequentially — bit-identical for any pool size.
  int stale_generations = 0;
  while (!stop.reached(evaluator) && stale_generations < 50) {
    const std::size_t evals_before = evaluator.unique_evaluations();
    std::vector<std::vector<double>> trials(pop_size);
    std::vector<Setting> trial_settings;
    trial_settings.reserve(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i) {
      // DE/rand/1/bin mutant.
      std::size_t a = rng.index(pop_size), b = rng.index(pop_size),
                  c = rng.index(pop_size);
      trials[i] = population[i];
      const std::size_t forced = rng.index(kParamCount);
      for (std::size_t d = 0; d < kParamCount; ++d) {
        if (d == forced || rng.bernoulli(kCr)) {
          trials[i][d] = population[a][d] +
                         kF * (population[b][d] - population[c][d]);
        }
      }
      trial_settings.push_back(vec_to_setting(trials[i]));
    }
    const auto trial_results = evaluator.evaluate_batch(trial_settings);
    for (std::size_t i = 0; i < pop_size; ++i) {
      if (trial_results[i].time_or_inf() < times[i]) {
        population[i] = std::move(trials[i]);
        times[i] = trial_results[i].time_or_inf();
      }
    }
    evaluator.mark_iteration();
    stale_generations = (evaluator.unique_evaluations() == evals_before)
                            ? stale_generations + 1
                            : 0;
  }
}

}  // namespace cstuner::baselines
