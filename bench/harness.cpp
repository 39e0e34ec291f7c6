#include "harness.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace cstuner::bench {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  }
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) return std::strtod(v, nullptr);
  return fallback;
}

}  // namespace

BenchConfig BenchConfig::from_env() {
  BenchConfig c;
  c.repeats = env_size("CSTUNER_REPEATS", c.repeats);
  c.universe_size = env_size("CSTUNER_UNIVERSE", c.universe_size);
  c.dataset_size = env_size("CSTUNER_DATASET", c.dataset_size);
  c.budget_s = env_double("CSTUNER_BUDGET_S", c.budget_s);
  c.max_iterations = env_size("CSTUNER_ITERATIONS", c.max_iterations);
  if (const char* v = std::getenv("CSTUNER_STENCILS")) {
    std::istringstream is(v);
    std::string token;
    while (std::getline(is, token, ',')) {
      if (!token.empty()) c.stencils.push_back(token);
    }
  } else {
    c.stencils = stencil::stencil_names();
  }
  return c;
}

const ArtifactCache::Entry& ArtifactCache::get(
    const std::string& stencil_name, const std::string& arch_name) {
  const std::string key = stencil_name + "@" + arch_name;
  auto it = entries_.find(key);
  if (it != entries_.end()) return *it->second;

  auto entry = std::make_unique<Entry>();
  entry->spec = stencil::make_stencil(stencil_name);
  entry->space = std::make_unique<space::SearchSpace>(entry->spec);
  entry->simulator =
      std::make_unique<gpusim::Simulator>(gpusim::arch_by_name(arch_name));
  Rng rng(fnv1a(key.data(), key.size()));
  entry->universe =
      entry->space->sample_universe(rng, config_.universe_size);
  entry->dataset =
      tuner::collect_dataset(*entry->space, *entry->simulator,
                             config_.dataset_size, rng,
                             &ThreadPool::global());
  it = entries_.emplace(key, std::move(entry)).first;
  return *it->second;
}

ga::GaOptions paper_ga_options() {
  ga::GaOptions ga;
  ga.sub_populations = 2;
  ga.population_size = 16;
  ga.crossover_rate = 0.8;
  ga.mutation_rate = 0.005;
  return ga;
}

std::unique_ptr<tuner::Tuner> make_tuner(const std::string& method,
                                         const BenchConfig& config,
                                         const ArtifactCache::Entry& entry,
                                         std::uint64_t seed) {
  core::CsTunerOptions options;
  options.dataset_size = config.dataset_size;
  options.universe_size = config.universe_size;
  options.ga = paper_ga_options();
  options.seed = seed;
  // The baselines' display names are their registry names, capitalised.
  std::string name = method;
  if (name != "csTuner") {
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  auto tuner = search::make_tuner(name, options);
  search::share_artifacts(*tuner, entry.dataset, entry.universe);
  return tuner;
}

RunResult run_tuning(const ArtifactCache::Entry& entry,
                     const std::string& method, const BenchConfig& config,
                     const tuner::StopCriteria& stop, std::uint64_t seed) {
  tuner::Evaluator evaluator(*entry.simulator, *entry.space, {}, seed);
  const double fault_rate = gpusim::FaultConfig::rate_from_env();
  if (fault_rate > 0.0) {
    evaluator.set_fault_injection(
        gpusim::FaultConfig::uniform(fault_rate, seed), entry.spec.name);
  }
  auto tuner = make_tuner(method, config, entry, seed);
  tuner->tune(evaluator, stop);
  RunResult result;
  result.trace = evaluator.trace();
  result.best_time_ms = evaluator.best_time_ms();
  result.virtual_time_s = evaluator.virtual_time_s();
  result.evaluations = evaluator.unique_evaluations();
  result.iterations = evaluator.iterations();
  result.fault_stats = evaluator.fault_stats();
  return result;
}

}  // namespace cstuner::bench
