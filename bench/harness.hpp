#pragma once
// Shared machinery for the experiment binaries: environment-driven knobs,
// per-(stencil, arch) cached artifacts (search space, candidate universe,
// performance dataset), and tuner construction matching §V-A2.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cstuner.hpp"

namespace cstuner::bench {

/// Experiment knobs, overridable via environment variables:
///   CSTUNER_REPEATS   repeats per method (paper: 10; default 5)
///   CSTUNER_UNIVERSE  candidate-universe size (default 20000)
///   CSTUNER_DATASET   performance-dataset size (default 128)
///   CSTUNER_BUDGET_S  iso-time virtual budget in seconds (default 100)
///   CSTUNER_STENCILS  comma-separated stencil subset (default: all eight)
struct BenchConfig {
  std::size_t repeats = 5;
  std::size_t universe_size = 20000;
  std::size_t dataset_size = 128;
  double budget_s = 100.0;
  std::size_t max_iterations = 10;
  std::vector<std::string> stencils;

  static BenchConfig from_env();
};

/// Cached per-(stencil, arch) experiment artifacts, shared across methods
/// and repeats so comparisons are on equal footing.
class ArtifactCache {
 public:
  struct Entry {
    stencil::StencilSpec spec;
    std::unique_ptr<space::SearchSpace> space;
    std::unique_ptr<gpusim::Simulator> simulator;
    std::vector<space::Setting> universe;
    tuner::PerfDataset dataset;
  };

  explicit ArtifactCache(const BenchConfig& config) : config_(config) {}

  /// Builds (or returns) the artifacts for one stencil on one GPU.
  const Entry& get(const std::string& stencil_name,
                   const std::string& arch_name);

 private:
  BenchConfig config_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

/// The four §V methods, resolved through search::make_tuner. `seed` varies
/// across repeats.
std::unique_ptr<tuner::Tuner> make_tuner(const std::string& method,
                                         const BenchConfig& config,
                                         const ArtifactCache::Entry& entry,
                                         std::uint64_t seed);

inline const std::vector<std::string>& method_names() {
  static const std::vector<std::string> names = {"csTuner", "Garvey",
                                                 "OpenTuner", "Artemis"};
  return names;
}

/// Runs one tuning session and returns the evaluator (trace + best).
/// Fault injection is armed from the CSTUNER_FAULT_RATE environment knob
/// (the CI fault-storm gate runs the whole bench suite under it); the
/// resulting failure statistics ride along in `fault_stats`.
struct RunResult {
  tuner::ConvergenceTrace trace;
  double best_time_ms = 0.0;
  double virtual_time_s = 0.0;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
  tuner::FaultStats fault_stats;
};

RunResult run_tuning(const ArtifactCache::Entry& entry,
                     const std::string& method, const BenchConfig& config,
                     const tuner::StopCriteria& stop, std::uint64_t seed);

/// Standard GA options of the evaluation (§V-A2).
ga::GaOptions paper_ga_options();

}  // namespace cstuner::bench
