#include "cputune/cpu_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "regress/pmnf.hpp"
#include "stats/descriptive.hpp"

namespace cstuner::cputune {

namespace {

/// log2 encoding for numeric parameters (same fairness rule as §IV-B).
double cv_encoded(CpuParamId id, std::int64_t value) {
  if (cpu_param_is_numeric(id)) {
    return std::log2(static_cast<double>(value)) + 1.0;
  }
  return static_cast<double>(value);
}

/// Ordered CV of best-partner values, mirroring core::grouping.
double ordered_cv(const std::vector<CpuSetting>& settings,
                  const std::vector<double>& times, CpuParamId pi,
                  CpuParamId pj) {
  std::map<std::int64_t, std::pair<double, std::int64_t>> best_by_value;
  for (std::size_t i = 0; i < settings.size(); ++i) {
    auto [it, inserted] =
        best_by_value.try_emplace(settings[i].get(pi), times[i],
                                  settings[i].get(pj));
    if (!inserted && times[i] < it->second.first) {
      it->second = {times[i], settings[i].get(pj)};
    }
  }
  if (best_by_value.size() < 2) {
    return std::numeric_limits<double>::max();
  }
  std::vector<double> partners;
  for (const auto& [v, best] : best_by_value) {
    (void)v;
    partners.push_back(cv_encoded(pj, best.second));
  }
  return stats::coefficient_of_variation(partners);
}

}  // namespace

CpuTuner::CpuTuner(CpuTunerOptions options) : options_(options) {}

CpuTuneResult CpuTuner::tune(const CpuSpace& space,
                             const CpuSimulator& simulator) {
  CpuTuneResult result;
  Rng rng(options_.seed);
  const auto& spec = space.spec();

  // --- Dataset + candidate universe.
  const auto dataset = space.sample(rng, options_.dataset_size);
  CSTUNER_CHECK_MSG(dataset.size() >= 8, "CPU dataset too small");
  std::vector<double> dataset_times(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    dataset_times[i] = simulator.measure_ms(spec, dataset[i], i);
  }
  auto universe = space.sample(rng, options_.universe_size);

  // --- Grouping: pairwise CVs -> deque -> Algorithm 1.
  std::vector<stats::ScoredPair> pairs;
  for (std::size_t a = 0; a < kCpuParams; ++a) {
    for (std::size_t b = a + 1; b < kCpuParams; ++b) {
      const double ab = ordered_cv(dataset, dataset_times,
                                   static_cast<CpuParamId>(a),
                                   static_cast<CpuParamId>(b));
      const double ba = ordered_cv(dataset, dataset_times,
                                   static_cast<CpuParamId>(b),
                                   static_cast<CpuParamId>(a));
      pairs.push_back({a, b, 0.5 * (ab + ba)});
    }
  }
  result.groups =
      stats::group_parameters(stats::build_deque(std::move(pairs)),
                              kCpuParams);

  // --- PMNF sampling with execution time as the modeled response.
  regress::Matrix x(dataset.size(), kCpuParams);
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    for (std::size_t c = 0; c < kCpuParams; ++c) {
      x(r, c) = static_cast<double>(dataset[r].values[c]);
    }
  }
  const regress::PmnfFitter fitter;
  const auto fit = fitter.fit_best(x, dataset_times, result.groups);
  std::vector<std::size_t> order(universe.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> predicted(universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    std::vector<double> row(kCpuParams);
    for (std::size_t c = 0; c < kCpuParams; ++c) {
      row[c] = static_cast<double>(universe[i].values[c]);
    }
    predicted[i] = fit.model.predict(row);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] < predicted[b];
  });
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.sampling_ratio *
                                  static_cast<double>(universe.size())));
  std::vector<CpuSetting> sampled;
  for (std::size_t i = 0; i < keep && i < order.size(); ++i) {
    sampled.push_back(universe[order[i]]);
  }
  result.sampled_count = sampled.size();

  // --- Evaluation bookkeeping. IslandGa::run calls fitness from every
  // island thread at once, so the GA's fitness and stop callbacks hold
  // `mutex` around everything below; the serial stages run without it.
  std::mutex mutex;
  std::unordered_map<std::uint64_t, double> cache;
  double best_time = std::numeric_limits<double>::infinity();
  CpuSetting best = dataset.front();
  auto evaluate = [&](const CpuSetting& s) {
    if (!space.is_valid(s)) return std::numeric_limits<double>::infinity();
    auto it = cache.find(s.hash());
    if (it != cache.end()) return it->second;
    if (result.evaluations >= options_.max_evaluations) {
      return std::numeric_limits<double>::infinity();
    }
    const double t = simulator.measure_ms(spec, s, s.hash());
    cache.emplace(s.hash(), t);
    ++result.evaluations;
    if (t < best_time) {
      best_time = t;
      best = s;
      result.trace.emplace_back(result.evaluations, t);
    }
    return t;
  };

  // Base: dataset optimum.
  {
    std::size_t bi = 0;
    for (std::size_t i = 1; i < dataset_times.size(); ++i) {
      if (dataset_times[i] < dataset_times[bi]) bi = i;
    }
    best = dataset[bi];
    evaluate(best);
  }

  // --- Re-index per group, then iterative GA with approximation.
  for (const auto& group : result.groups) {
    if (result.evaluations >= options_.max_evaluations) break;
    std::set<std::vector<std::int64_t>> distinct;
    for (const auto& s : sampled) {
      std::vector<std::int64_t> tuple;
      for (std::size_t p : group) tuple.push_back(s.values[p]);
      distinct.insert(std::move(tuple));
    }
    std::vector<std::vector<std::int64_t>> tuples(distinct.begin(),
                                                  distinct.end());
    if (tuples.empty()) continue;

    auto graft = [&](std::size_t index) {
      CpuSetting candidate = best;
      for (std::size_t i = 0; i < group.size(); ++i) {
        candidate.values[group[i]] = tuples[index][i];
      }
      // Cheap repair of the intra-setting rules.
      if (candidate.get(kVecWidth) > candidate.get(kTileX)) {
        candidate.set(kVecWidth, candidate.get(kTileX));
      }
      if (candidate.get(kUnroll) > candidate.get(kTileZ)) {
        candidate.set(kUnroll, candidate.get(kTileZ));
      }
      return candidate;
    };

    const std::size_t pop_total =
        static_cast<std::size_t>(options_.ga.sub_populations) *
        static_cast<std::size_t>(options_.ga.population_size);
    if (tuples.size() <= pop_total) {
      for (std::size_t t = 0; t < tuples.size(); ++t) evaluate(graft(t));
    } else {
      ga::GaOptions ga_options = options_.ga;
      ga_options.seed = hash_combine(options_.seed, group.front() + 17);
      ga::IslandGa island({static_cast<std::uint32_t>(tuples.size())},
                          ga_options);
      island.run(
          [&](const ga::Genome& genome) {
            std::lock_guard<std::mutex> lock(mutex);
            const double t = evaluate(graft(genome[0]));
            return std::isfinite(t) ? 1000.0 / t : 1e-9;
          },
          [&](const ga::GaState& state) {
            {
              std::lock_guard<std::mutex> lock(mutex);
              if (result.evaluations >= options_.max_evaluations) return true;
            }
            if (state.generation < 2) return false;
            std::vector<double> top;
            for (double f : state.fitnesses) {
              if (f > 0.0 && std::isfinite(f)) top.push_back(f);
              if (top.size() == options_.top_n) break;
            }
            return top.size() >= 2 &&
                   stats::coefficient_of_variation(top) <
                       options_.cv_threshold;
          });
    }
  }

  result.best = best;
  result.best_time_ms = best_time;
  return result;
}

}  // namespace cstuner::cputune
