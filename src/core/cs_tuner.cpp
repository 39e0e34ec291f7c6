#include "core/cs_tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "codegen/cuda_codegen.hpp"
#include "core/grouping.hpp"
#include "obs/obs.hpp"
#include "space/lazy_universe.hpp"

namespace cstuner::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fitness used throughout: strictly positive, higher = faster, so CV-based
/// approximation (Eq. 1) is well defined.
double fitness_of(double time_ms) {
  if (!std::isfinite(time_ms) || time_ms <= 0.0) return 1e-9;
  return 1000.0 / time_ms;
}

}  // namespace

CsTuner::CsTuner(CsTunerOptions options) : options_(std::move(options)) {}

void CsTuner::set_dataset(tuner::PerfDataset dataset) {
  preset_dataset_ = std::move(dataset);
}

void CsTuner::set_universe(std::vector<space::Setting> universe) {
  preset_universe_ = std::move(universe);
}

void CsTuner::tune(tuner::Evaluator& evaluator,
                   const tuner::StopCriteria& stop) {
  CSTUNER_TRACE_PHASE("cstuner.tune");
  report_ = PreprocessReport{};
  const auto& space = evaluator.space();
  if (tuner::Checkpoint* checkpoint = evaluator.checkpoint()) {
    checkpoint->bind_tuner(name());
  }
  Rng rng(options_.seed);

  // --- Offline: candidate universe + performance dataset (§IV-A). ---------
  auto t0 = Clock::now();
  std::vector<space::Setting> universe;
  tuner::PerfDataset dataset;
  {
    CSTUNER_TRACE_PHASE("cstuner.offline");
    if (preset_universe_.has_value()) {
      // Preset universes may carry constraint-invalid settings; drop them
      // before any tuning stage sees them. An enumerated universe is valid
      // by construction.
      const space::ConstraintChecker& checker = space.checker();
      for (const auto& setting : *preset_universe_) {
        if (checker.is_valid(checker.canonicalized(setting))) {
          universe.push_back(setting);
        }
      }
    } else {
      // Constraint-propagating enumeration (space::LazyUniverse): exact
      // count, then either the full valid space or a deterministic spread
      // sample of it. The sample phase is salted from the tuner RNG (same
      // discipline as SearchSpace::sample_universe): an unsalted sample
      // lands on every block's start, and block starts repeat the same
      // inner lexicographic values, which collapses per-parameter diversity
      // enough to starve the per-group GA of distinct tuples.
      std::optional<space::LazyUniverse> lazy;
      {
        CSTUNER_TRACE_PHASE("space.universe_build");
        lazy.emplace(space, space::LazyUniverseOptions{},
                     evaluator.thread_pool());
      }
      report_.universe_exact_count = lazy->valid_count();
      CSTUNER_TRACE_PHASE("space.spread_sample");
      if (lazy->valid_count() <= options_.universe_size) {
        universe = lazy->take_all();
      } else {
        universe = lazy->spread_sample(options_.universe_size, rng.next() | 1);
      }
    }
    if (preset_dataset_.has_value()) {
      dataset = *preset_dataset_;
    } else if (evaluator.checkpoint() != nullptr &&
               evaluator.checkpoint()->loaded_dataset().has_value()) {
      // Resume: the snapshot carries the dataset bit-exactly; skip the
      // offline collection entirely.
      dataset = *evaluator.checkpoint()->loaded_dataset();
    } else {
      CSTUNER_TRACE_PHASE("tuner.collect_dataset");
      // Collection draws from its own stream so that skipping it on resume
      // leaves `rng` — and everything downstream of it — unchanged.
      Rng dataset_rng(hash_combine(options_.seed, 0xDA7A5E7ULL));
      dataset = tuner::collect_dataset(space, evaluator.simulator(),
                                       options_.dataset_size, dataset_rng,
                                       evaluator.thread_pool(),
                                       evaluator.fault_injector());
    }
    if (evaluator.checkpoint() != nullptr) {
      evaluator.checkpoint()->set_dataset_json(
          tuner::serialize_dataset(dataset));
    }
    report_.dataset_s = seconds_since(t0);
    report_.universe_count = universe.size();
  }
  CSTUNER_OBS_GAUGE("cstuner.universe_size", universe.size());
  // The universe bounds the unique settings this tune can evaluate; sizing
  // the result-cache shards now keeps the flat tables from rehashing
  // mid-tune (docs/performance.md).
  evaluator.reserve_cache(universe.size());

  // --- Pre-processing 1: parameter grouping (§IV-C). ----------------------
  t0 = Clock::now();
  {
    CSTUNER_TRACE_PHASE("core.grouping");
    switch (options_.grouping_mode) {
      case GroupingMode::kStatistical:
        report_.groups = group_parameters(space, dataset);
        break;
      case GroupingMode::kSingleton:
        for (std::size_t p = 0; p < space::kParamCount; ++p) {
          report_.groups.push_back({p});
        }
        break;
      case GroupingMode::kByDimension:
        report_.groups = {
            {space::kTBx, space::kUFx, space::kCMx, space::kBMx},
            {space::kTBy, space::kUFy, space::kCMy, space::kBMy},
            {space::kTBz, space::kUFz, space::kCMz, space::kBMz},
            {space::kUseStreaming, space::kSD, space::kSB,
             space::kUsePrefetching},
            {space::kUseShared, space::kUseConstant, space::kUseRetiming},
        };
        break;
    }
    report_.grouping_s = seconds_since(t0);
  }
  CSTUNER_OBS_GAUGE("cstuner.groups", report_.groups.size());

  // --- Pre-processing 2: metric combination + PMNF sampling (§IV-D). ------
  t0 = Clock::now();
  SampledSpace sampled;
  {
    CSTUNER_TRACE_PHASE("core.pmnf_sampling");
    if (options_.sampling_mode == SamplingMode::kPmnf) {
      sampled = sample_search_space(space, dataset, report_.groups, universe,
                                    options_.sampling,
                                    evaluator.thread_pool());
    } else {
      // Ablation: plain random subset, no model guidance.
      std::vector<space::Setting> shuffled = universe;
      rng.shuffle(shuffled);
      const auto keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(options_.sampling.ratio *
                                      static_cast<double>(shuffled.size())));
      shuffled.resize(std::min(shuffled.size(), keep));
      sampled.settings = std::move(shuffled);
    }
    report_.sampling_s = seconds_since(t0);
    report_.sampled_count = sampled.settings.size();
    report_.models = sampled.models;
  }
  CSTUNER_OBS_GAUGE("cstuner.sampled_count", sampled.settings.size());

  // --- Pre-processing 3: code generation for the sampled settings. --------
  if (options_.generate_kernels) {
    CSTUNER_TRACE_PHASE("cstuner.codegen");
    t0 = Clock::now();
    for (const auto& setting : sampled.settings) {
      const auto kernel = codegen::generate_kernel(space.spec(), setting);
      report_.generated_kernel_bytes += kernel.source.size();
    }
    report_.codegen_s = seconds_since(t0);
  }

  // --- Search: re-indexing, group passes and polish, to the end of tune. ---
  CSTUNER_TRACE_PHASE("core.search");

  // Re-indexing of group value tuples (Fig. 7).
  auto indices = build_group_indices(report_.groups, sampled.settings);

  // Base setting: the optimum of the performance dataset (§IV-C). Measure
  // it first — it is the starting point of the convergence curve (and the
  // reason csTuner "has a better starting point" in Fig. 8).
  space::Setting base = dataset.settings[dataset.best_index()];
  evaluator.evaluate(base);

  // Tune large groups first: they carry the most performance variance and
  // fix the context for the smaller ones.
  std::vector<std::size_t> group_order(indices.size());
  for (std::size_t i = 0; i < group_order.size(); ++i) group_order[i] = i;
  std::sort(group_order.begin(), group_order.end(),
            [&](std::size_t a, std::size_t b) {
              return indices[a].cardinality() > indices[b].cardinality();
            });

  const std::size_t pop_total =
      static_cast<std::size_t>(options_.ga.sub_populations) *
      static_cast<std::size_t>(options_.ga.population_size);

  // Grafts group value tuples onto the base and measures them as one batch;
  // times[i] belongs to tuples[i]. Grafting can violate cross-group rules,
  // so each candidate is repaired instead of discarded (the whole group
  // stays searchable); anything still invalid scores infinity at the
  // evaluator. Quarantined repeat offenders are skipped: their penalty
  // outcome is already known, so they should not burn batch slots.
  auto measure_tuples = [&](const GroupIndex& group,
                            const std::vector<std::size_t>& tuples) {
    std::vector<space::Setting> candidates;
    std::vector<std::size_t> slots;
    candidates.reserve(tuples.size());
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      space::Setting candidate = base;
      group.apply(tuples[i], candidate);
      candidate = space.checker().repaired(candidate);
      if (evaluator.is_quarantined(candidate.hash())) continue;
      candidates.push_back(candidate);
      slots.push_back(i);
    }
    const auto results = evaluator.evaluate_batch(candidates);
    std::vector<double> times(tuples.size(),
                              std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j < results.size(); ++j) {
      times[slots[j]] = results[j].time_or_inf();
    }
    return times;
  };

  // Iterative per-group tuning (§IV-E). One pass tunes every group once;
  // remaining budget funds refinement passes around the improved base until
  // a pass stops paying off.
  for (std::size_t pass = 0; !stop.reached(evaluator); ++pass) {
    CSTUNER_TRACE_PHASE("cstuner.group_pass");
    CSTUNER_OBS_COUNT("cstuner.passes", 1);
    const double best_before_pass = evaluator.best_time_ms();
    for (std::size_t gi : group_order) {
      if (stop.reached(evaluator)) break;
      const GroupIndex& group = indices[gi];
      if (group.cardinality() == 0) continue;
      // Quiescent at entry and exit (island.run joins its ranks; the
      // exhaustive branch is synchronous), so virtual attribution per group
      // is deterministic.
      CSTUNER_TRACE_PHASE("cstuner.group");

      std::size_t best_tuple = GroupIndex::npos;
      double best_time = std::numeric_limits<double>::infinity();
      auto consider = [&](std::size_t tuple, double time_ms) {
        if (time_ms < best_time) {
          best_time = time_ms;
          best_tuple = tuple;
        }
      };

      if (group.cardinality() <= pop_total) {
        // Degenerate case (§V-A2): exhaustive search over the group,
        // evaluated in iteration-sized batches across the pool.
        const auto chunk_size =
            static_cast<std::size_t>(options_.ga.population_size);
        std::size_t t = 0;
        while (t < group.cardinality() && !stop.reached(evaluator)) {
          const std::size_t chunk_end =
              std::min(t + chunk_size, group.cardinality());
          std::vector<std::size_t> tuples;
          for (; t < chunk_end; ++t) tuples.push_back(t);
          const auto times = measure_tuples(group, tuples);
          for (std::size_t i = 0; i < tuples.size(); ++i) {
            consider(tuples[i], times[i]);
          }
          evaluator.mark_iteration();
        }
      } else {
        // Evolutionary search with approximation over the re-indexed
        // tuples. Each island hands its generation over as one batch; both
        // islands' batches are in flight at once, so `consider` needs its
        // own lock.
        ga::GaOptions ga_options = options_.ga;
        ga_options.seed =
            hash_combine(hash_combine(options_.seed, gi + 1), pass);
        // Survivability wiring: the fault injector's rank-kill plan drives
        // island deaths (one-shot per entry, so the plan fires in whichever
        // group/pass first reaches the scheduled generation), and recovery
        // events are journaled so --resume replays a degraded run.
        if (const tuner::FaultInjector* injector = evaluator.fault_injector();
            injector != nullptr && injector->has_kill_plan()) {
          ga_options.kill_predicate = [injector](int rank,
                                                 std::uint64_t generation) {
            return injector->should_kill(rank, generation);
          };
        }
        if (tuner::Checkpoint* checkpoint = evaluator.checkpoint()) {
          ga_options.event_sink = [checkpoint](const tuner::IslandEvent& e) {
            checkpoint->append_island_event(e);
          };
        }
        ga::IslandGa island({static_cast<std::uint32_t>(group.cardinality())},
                            ga_options);
        std::mutex consider_mutex;
        auto evaluate = [&](const std::vector<ga::Genome>& genomes) {
          std::vector<std::size_t> tuples;
          tuples.reserve(genomes.size());
          for (const auto& genome : genomes) tuples.push_back(genome[0]);
          const auto times = measure_tuples(group, tuples);
          std::vector<double> fitnesses(times.size());
          std::lock_guard<std::mutex> lock(consider_mutex);
          for (std::size_t i = 0; i < times.size(); ++i) {
            consider(tuples[i], times[i]);
            fitnesses[i] = fitness_of(times[i]);
          }
          return fitnesses;
        };
        auto should_stop = [&](const ga::GaState& state) {
          evaluator.mark_iteration();
          if (stop.reached(evaluator)) return true;
          if (!options_.use_approximation) return false;  // cap-only regime
          if (state.generation < options_.approx.min_generations) {
            return false;
          }
          return approximation_reached(state.fitnesses, options_.approx);
        };
        island.run(evaluate, should_stop);
      }

      if (best_tuple != GroupIndex::npos && std::isfinite(best_time)) {
        group.apply(best_tuple, base);
        base = space.checker().repaired(base);
      }
    }
    // A pass that improved nothing has converged; further passes would
    // only replay cached evaluations.
    if (evaluator.best_time_ms() >= best_before_pass * 0.999) break;
  }

  // Polish: any remaining budget walks the sampled settings in PMNF-ranked
  // order (they are sorted best-predicted first), so iso-time comparisons
  // never leave csTuner idle while baselines keep searching. Batched in
  // iteration-sized chunks so the walk fans across the pool.
  const auto polish_chunk =
      static_cast<std::size_t>(options_.ga.population_size);
  std::size_t p = 0;
  CSTUNER_TRACE_PHASE("cstuner.polish");
  while (p < sampled.settings.size() && !stop.reached(evaluator)) {
    const std::size_t chunk_end =
        std::min(p + polish_chunk, sampled.settings.size());
    const std::vector<space::Setting> chunk(
        sampled.settings.begin() + static_cast<std::ptrdiff_t>(p),
        sampled.settings.begin() + static_cast<std::ptrdiff_t>(chunk_end));
    evaluator.evaluate_batch(chunk);
    evaluator.mark_iteration();
    p = chunk_end;
  }
}

}  // namespace cstuner::core
