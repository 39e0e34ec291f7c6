// Traced replay of cli-cstuner: each cell's `cstuner tune` pipeline run in
// process as a sequence of public calls, each timed from outside —
// propagation, LazyUniverse construction, the spread sample, dataset
// collection, grouping, PMNF sampling, then CsTuner::tune on the preset
// universe and dataset. run.py checks that every replayed digest equals
// the CLI's.

#include <cmath>
#include <memory>

#include "analysis/propagate.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "core/grouping.hpp"
#include "core/sampling.hpp"
#include "gpusim/simulator.hpp"
#include "perfbench.hpp"
#include "space/lazy_universe.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"
#include "tuner/dataset.hpp"

namespace perfbench {

using namespace cstuner;

namespace {

// The CLI's defaults: `cstuner tune <stencil> --arch <a> --seed 7`.
constexpr std::uint64_t kTuneSeed = 7;
constexpr double kBudgetS = 60.0;
constexpr std::size_t kUniverse = 8000;

/// Accumulates wall time per layer slot across the replayed cells.
class Layers {
 public:
  template <typename F>
  auto time(std::size_t slot, F&& f) {
    const auto t0 = Clock::now();
    auto result = f();
    seconds_[slot] += seconds_since(t0);
    return result;
  }
  double operator[](std::size_t slot) const { return seconds_[slot]; }

 private:
  double seconds_[7] = {};
};

enum Slot : std::size_t {
  kPropagate,
  kUniverseBuild,
  kSpreadSample,
  kDataset,
  kGrouping,
  kPmnfSampling,
  kSearch,
};

}  // namespace

RunReport run_replay(const Options& options) {
  RunReport report;
  ThreadPool pool(kPoolWorkers);
  Layers layers;
  const auto start = Clock::now();
  for (const Cell& cell : options.cells) {
    Request r;
    r.cell = cell.name();
    const auto t0 = Clock::now();
    space::SearchSpace space(stencil::make_stencil(cell.stencil));
    gpusim::Simulator sim(gpusim::arch_by_name(cell.arch));
    tuner::Evaluator evaluator(sim, space, {}, kTuneSeed, &pool);

    layers.time(kPropagate, [&] {
      analysis::PropagateOptions popts;
      popts.compute_counts = false;
      popts.pool = &pool;
      return analysis::propagate(space, popts);
    });
    auto lazy = layers.time(kUniverseBuild, [&] {
      return std::make_unique<space::LazyUniverse>(
          space, space::LazyUniverseOptions{}, &pool);
    });
    // CsTuner draws the spread-sample salt as the first number of its RNG.
    auto universe = layers.time(kSpreadSample, [&] {
      Rng rng(kTuneSeed);
      return lazy->valid_count() <= kUniverse
                 ? lazy->take_all()
                 : lazy->spread_sample(kUniverse, rng.next() | 1);
    });
    auto dataset = layers.time(kDataset, [&] {
      Rng dataset_rng(hash_combine(kTuneSeed, 0xDA7A5E7ULL));
      return tuner::collect_dataset(space, sim,
                                    core::CsTunerOptions{}.dataset_size,
                                    dataset_rng, &pool);
    });
    auto groups = layers.time(
        kGrouping, [&] { return core::group_parameters(space, dataset); });
    layers.time(kPmnfSampling, [&] {
      return core::sample_search_space(space, dataset, groups, universe,
                                       core::SamplingConfig{}, &pool);
    });
    layers.time(kSearch, [&] {
      core::CsTunerOptions cs_options;
      cs_options.universe_size = kUniverse;
      cs_options.seed = kTuneSeed;
      core::CsTuner tuner(cs_options);
      tuner.set_universe(std::move(universe));
      tuner.set_dataset(std::move(dataset));
      tuner::StopCriteria stop;
      stop.max_virtual_seconds = kBudgetS;
      tuner.tune(evaluator, stop);
      return 0;
    });
    r.best_ms = evaluator.best_time_ms();
    r.ok = std::isfinite(r.best_ms) && evaluator.best_setting().has_value() &&
           space.is_valid(*evaluator.best_setting());
    if (!r.ok) r.error = "no valid finite best setting";
    r.digest = digest(evaluator);
    r.wall_s = seconds_since(t0);
    report.requests.push_back(std::move(r));
  }
  report.timed_wall_s = seconds_since(start);

  const auto n = static_cast<std::uint64_t>(report.requests.size());
  const double dn = static_cast<double>(n > 0 ? n : 1);
  report.layers = {
      {"analysis.propagate_s", layers[kPropagate] / dn, "s", n},
      {"space.universe_build_s", layers[kUniverseBuild] / dn, "s", n},
      {"space.spread_sample_s", layers[kSpreadSample] / dn, "s", n},
      {"tuner.collect_dataset_s", layers[kDataset] / dn, "s", n},
      {"core.grouping_s", layers[kGrouping] / dn, "s", n},
      {"core.pmnf_sampling_s", layers[kPmnfSampling] / dn, "s", n},
      {"core.search_s", layers[kSearch] / dn, "s", n},
  };
  return report;
}

}  // namespace perfbench
