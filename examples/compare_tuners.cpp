// Head-to-head of the four §V methods (plus the extra OpenTuner techniques)
// on one stencil under the same virtual-time budget, every method resolved
// by search::make_tuner.
//
//   $ ./compare_tuners [stencil] [budget_seconds]

#include <iomanip>
#include <iostream>
#include <memory>

#include "cstuner.hpp"

using namespace cstuner;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "helmholtz";
  const double budget_s = argc > 2 ? std::stod(argv[2]) : 40.0;

  const auto spec = stencil::make_stencil(name);
  space::SearchSpace space(spec);
  gpusim::Simulator simulator(gpusim::a100());

  // Shared offline artifacts so every dataset-consuming method sees the
  // same evidence.
  Rng rng(17);
  const auto universe = space.sample_universe(rng, 8000);
  const auto dataset = tuner::collect_dataset(space, simulator, 128, rng);

  // Display name -> search::make_tuner name.
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"csTuner", "csTuner"},
      {"Garvey", "garvey"},
      {"OpenTuner (global GA)", "opentuner"},
      {"OpenTuner (hill climber)", "hill"},
      {"OpenTuner (diff. evolution)", "opentuner-de"},
      {"Artemis", "artemis"},
  };

  std::cout << "stencil " << name << ", budget " << budget_s
            << " virtual s\n\n"
            << std::left << std::setw(30) << "method" << std::setw(12)
            << "best_ms" << std::setw(10) << "evals" << std::setw(8)
            << "iters" << "used_s\n";
  for (const auto& [display, method] : rows) {
    auto tuner = search::make_tuner(method, core::CsTunerOptions{});
    search::share_artifacts(*tuner, dataset, universe);
    tuner::Evaluator evaluator(simulator, space, {}, 23);
    tuner->tune(evaluator, {.max_virtual_seconds = budget_s});
    std::cout << std::left << std::setw(30) << display << std::setw(12)
              << std::setprecision(4) << evaluator.best_time_ms()
              << std::setw(10) << evaluator.unique_evaluations()
              << std::setw(8) << evaluator.iterations()
              << std::setprecision(3) << evaluator.virtual_time_s() << '\n';
  }
  return 0;
}
