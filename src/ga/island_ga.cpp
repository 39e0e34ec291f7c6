#include "ga/island_ga.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ga/breeding.hpp"
#include "minimpi/comm.hpp"
#include "obs/obs.hpp"

namespace cstuner::ga {

namespace {

constexpr int kTagMigrateGenomes = 1;
constexpr int kTagMigrateFitness = 2;
constexpr int kTagStatsFitness = 3;
constexpr int kTagStatsBest = 4;
constexpr int kTagDecision = 5;
constexpr int kTagResult = 6;

struct Individual {
  Genome genome;
  double fitness = 0.0;
};

std::vector<std::uint32_t> flatten(const std::vector<Individual>& pop,
                                   std::size_t count) {
  std::vector<std::uint32_t> flat;
  if (count > 0) flat.reserve(count * pop[0].genome.size());
  for (std::size_t i = 0; i < count; ++i) {
    flat.insert(flat.end(), pop[i].genome.begin(), pop[i].genome.end());
  }
  return flat;
}

}  // namespace

IslandGa::IslandGa(std::vector<std::uint32_t> cardinalities,
                   GaOptions options)
    : cardinalities_(std::move(cardinalities)), options_(options) {
  CSTUNER_CHECK(!cardinalities_.empty());
  for (auto c : cardinalities_) CSTUNER_CHECK(c >= 1);
  CSTUNER_CHECK(options_.sub_populations >= 1);
  CSTUNER_CHECK(options_.population_size >= 2);
}

GaResult IslandGa::run(
    const std::function<double(const Genome&)>& evaluate,
    const std::function<bool(const GaState&)>& should_stop) {
  return run(
      [&evaluate](const std::vector<Genome>& genomes) {
        std::vector<double> fitnesses;
        fitnesses.reserve(genomes.size());
        for (const auto& genome : genomes) {
          fitnesses.push_back(evaluate(genome));
        }
        return fitnesses;
      },
      should_stop);
}

GaResult IslandGa::run(
    const BatchFitness& evaluate,
    const std::function<bool(const GaState&)>& should_stop) {
  CSTUNER_TRACE_SPAN("ga", "ga.run");
  GaResult result;
  // Detects the pathological all-islands-killed plan: nobody ran to the end,
  // so `result` was never written by a coordinator.
  std::atomic<bool> any_island_finished{false};

  const std::size_t n_genes = cardinalities_.size();
  const int pop_size = options_.population_size;

  minimpi::Context::run(options_.sub_populations, [&](minimpi::Comm& comm) {
    Rng rng(hash_combine(options_.seed,
                         static_cast<std::uint64_t>(comm.rank()) + 101));

    // Injected-crash point, hit at the start of every generation (and once
    // before the initial population, generation 0). Throwing RankKilled
    // before any generation-g work makes the death independent of peer and
    // evaluator-thread timing: the dead island never reaches generation
    // g's membership sync, so every survivor sees the same view.
    auto maybe_die = [&](std::uint64_t gen) {
      if (!options_.kill_predicate ||
          !options_.kill_predicate(comm.rank(), gen)) {
        return;
      }
      CSTUNER_OBS_COUNT("ga.rank_deaths", 1);
      if (options_.event_sink) {
        options_.event_sink({tuner::IslandEvent::Kind::kRankDeath,
                             comm.rank(), gen, -1});
      }
      throw minimpi::RankKilled("island " + std::to_string(comm.rank()) +
                                " killed at generation " +
                                std::to_string(gen));
    };
    maybe_die(0);

    // Batch-evaluate one island generation. Other islands may be inside
    // their own call at the same time; the oracle handles the concurrency.
    auto evaluate_into = [&](std::vector<Individual>& pop,
                             std::vector<Genome> genomes) {
      const auto fitnesses = evaluate(genomes);
      CSTUNER_CHECK_MSG(fitnesses.size() == genomes.size(),
                        "batch fitness must match genome count");
      for (std::size_t i = 0; i < pop.size(); ++i) {
        pop[i].genome = std::move(genomes[i]);
        pop[i].fitness = fitnesses[i];
      }
    };

    // --- Initial population.
    std::vector<Individual> pop(static_cast<std::size_t>(pop_size));
    {
      std::vector<Genome> genomes;
      genomes.reserve(pop.size());
      for (std::size_t i = 0; i < pop.size(); ++i) {
        genomes.push_back(options_.initializer
                              ? options_.initializer(rng)
                              : random_genome(cardinalities_, rng));
        CSTUNER_CHECK(genomes.back().size() == n_genes);
      }
      evaluate_into(pop, std::move(genomes));
    }

    auto best_of = [](const std::vector<Individual>& p) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (p[i].fitness > p[best].fitness) best = i;
      }
      return best;
    };
    auto worst_of = [](const std::vector<Individual>& p) {
      std::size_t worst = 0;
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (p[i].fitness < p[worst].fitness) worst = i;
      }
      return worst;
    };

    // Ring-heal state: the last agreed membership (starts as the full
    // ring) and the elites most recently received from the left live
    // neighbour. If that neighbour dies, its legacy is adopted so the dead
    // island's best genomes are not lost with it.
    minimpi::MembershipView view;
    view.live.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      view.live[static_cast<std::size_t>(r)] = r;
    }
    std::vector<Individual> legacy;
    int legacy_source = -1;

    for (std::size_t gen = 1; gen <= options_.max_generations; ++gen) {
      maybe_die(gen);
      // --- Breeding: each slot breeds from its four ring neighbours with
      // fitness-proportional parent choice (Fig. 6 description, shared with
      // the serial optimizer-zoo port via ga/breeding.hpp). All offspring
      // are bred first (breeding reads only the parents), then the whole
      // generation is evaluated as one batch.
      std::vector<Genome> parents(pop.size());
      std::vector<double> fitnesses(pop.size());
      for (std::size_t i = 0; i < pop.size(); ++i) {
        parents[i] = pop[i].genome;
        fitnesses[i] = pop[i].fitness;
      }
      std::vector<Genome> offspring =
          breed_generation(parents, fitnesses, cardinalities_,
                           options_.crossover_rate, options_.mutation_rate,
                           rng);
      std::vector<Individual> next(pop.size());
      evaluate_into(next, std::move(offspring));
      // Elitism: the best parent survives over the worst child.
      const std::size_t elite = best_of(pop);
      const std::size_t worst_child = worst_of(next);
      if (pop[elite].fitness > next[worst_child].fitness) {
        next[worst_child] = pop[elite];
      }
      pop = std::move(next);

      // --- Membership sync: survivors agree on who is alive before any
      // generation-g exchange. Generations are globally lock-stepped (the
      // stop decision below gathers from every live rank), so no island
      // can die between this sync and the exchanges that use its view.
      const minimpi::MembershipView prev_view = view;
      view = comm.sync_membership();
      CSTUNER_CHECK_MSG(
          static_cast<int>(view.live.size()) >= options_.min_islands,
          "island GA: live islands fell below min_islands");

      // --- Ring healing: if my left live neighbour died, the ring reknits
      // across the gap and I adopt the elites it last migrated to me, so
      // the dead island's best genomes stay in the gene pool.
      if (prev_view.live.size() > 1) {
        const int prev_left = prev_view.left_neighbor_of(comm.rank());
        if (!view.contains(prev_left)) {
          CSTUNER_OBS_COUNT("ga.ring_heals", 1);
          if (options_.event_sink) {
            options_.event_sink({tuner::IslandEvent::Kind::kRingHeal,
                                 comm.rank(), gen, prev_left});
          }
          if (legacy_source == prev_left && !legacy.empty()) {
            CSTUNER_OBS_COUNT("ga.elite_adoptions", legacy.size());
            if (options_.event_sink) {
              options_.event_sink({tuner::IslandEvent::Kind::kEliteAdoption,
                                   comm.rank(), gen, prev_left});
            }
            for (const Individual& elite : legacy) {
              const std::size_t worst = worst_of(pop);
              if (elite.fitness > pop[worst].fitness) pop[worst] = elite;
            }
          }
          legacy.clear();
          legacy_source = -1;
        }
      }

      // --- Ring migration: top individuals go to the right *live*
      // neighbour (the agreed view heals the ring around dead islands).
      if (view.live.size() > 1 &&
          gen % static_cast<std::size_t>(options_.migration_interval) == 0) {
        CSTUNER_TRACE_SPAN("comm", "ga.migration");
        CSTUNER_OBS_COUNT("ga.migrations", 1);
        std::vector<Individual> sorted = pop;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Individual& a, const Individual& b) {
                    return a.fitness > b.fitness;
                  });
        const auto m = static_cast<std::size_t>(
            std::min<int>(options_.migrants, pop_size));
        std::vector<double> fit(m);
        for (std::size_t i = 0; i < m; ++i) fit[i] = sorted[i].fitness;
        const int right = view.right_neighbor_of(comm.rank());
        const int left = view.left_neighbor_of(comm.rank());
        comm.try_send_values<std::uint32_t>(right, kTagMigrateGenomes,
                                            flatten(sorted, m));
        comm.try_send_values<double>(right, kTagMigrateFitness, fit);
        const auto in_genomes =
            comm.try_recv_values<std::uint32_t>(left, kTagMigrateGenomes);
        const auto in_fitness =
            comm.try_recv_values<double>(left, kTagMigrateFitness);
        if (in_genomes && in_fitness) {
          CSTUNER_CHECK(in_genomes->size() == m * n_genes);
          CSTUNER_CHECK(in_fitness->size() == m);
          legacy.clear();
          legacy_source = left;
          for (std::size_t i = 0; i < m; ++i) {
            Individual migrant;
            migrant.genome.assign(
                in_genomes->begin() +
                    static_cast<std::ptrdiff_t>(i * n_genes),
                in_genomes->begin() +
                    static_cast<std::ptrdiff_t>((i + 1) * n_genes));
            migrant.fitness = (*in_fitness)[i];
            legacy.push_back(migrant);
            const std::size_t worst = worst_of(pop);
            if (migrant.fitness > pop[worst].fitness) pop[worst] = migrant;
          }
        }
      }

      // --- Global stop decision on the coordinator: the lowest live rank
      // (rank 0 until it dies). Every live rank derives the same
      // coordinator from the agreed view.
      const int coordinator = view.live.front();
      const std::size_t local_best = best_of(pop);
      std::vector<double> local_fitness(pop.size());
      for (std::size_t i = 0; i < pop.size(); ++i) {
        local_fitness[i] = pop[i].fitness;
      }
      bool stop = false;
      if (comm.rank() == coordinator) {
        // One generation finished across all live islands (the coordinator
        // decides after gathering every live rank's stats, so this count
        // is deterministic).
        CSTUNER_OBS_COUNT("ga.generations", 1);
        CSTUNER_OBS_GAUGE("ga.live_islands",
                          static_cast<std::int64_t>(view.live.size()));
        GaState state;
        state.generation = gen;
        state.fitnesses = local_fitness;
        state.fitnesses.reserve(pop.size() * view.live.size());
        state.best = pop[local_best].genome;
        state.best_fitness = pop[local_best].fitness;
        for (int r : view.live) {
          if (r == coordinator) continue;
          const auto fit = comm.try_recv_values<double>(r, kTagStatsFitness);
          const auto genome =
              comm.try_recv_values<std::uint32_t>(r, kTagStatsBest);
          // A rank that died mid-exchange contributes nothing this
          // generation; the next sync drops it from the view.
          if (!fit || !genome) continue;
          state.fitnesses.insert(state.fitnesses.end(), fit->begin(),
                                 fit->end());
          const double best_fit = fit->empty() ? 0.0 : (*fit)[0];
          // Convention: remote fitness vectors are sorted descending, so
          // fit[0] is that rank's best, matching `genome`.
          if (best_fit > state.best_fitness) {
            state.best_fitness = best_fit;
            state.best = *genome;
          }
        }
        std::sort(state.fitnesses.begin(), state.fitnesses.end(),
                  std::greater<>());
        stop = should_stop(state) || gen == options_.max_generations;
        // Only the one coordinator of this generation writes the closure;
        // coordinator turnover happens only across membership syncs, which
        // order the old coordinator's death before the new one's writes.
        result.best = state.best;
        result.best_fitness = state.best_fitness;
        result.generations = gen;
        result.islands_survived = view.live.size();
        result.rank_deaths =
            static_cast<std::size_t>(comm.size()) - view.live.size();
        for (int r : view.live) {
          if (r == coordinator) continue;
          comm.try_send_values<std::uint8_t>(
              r, kTagDecision, {static_cast<std::uint8_t>(stop ? 1 : 0)});
        }
      } else {
        std::vector<double> sorted_fitness = local_fitness;
        std::sort(sorted_fitness.begin(), sorted_fitness.end(),
                  std::greater<>());
        comm.try_send_values<double>(coordinator, kTagStatsFitness,
                                     sorted_fitness);
        comm.try_send_values<std::uint32_t>(coordinator, kTagStatsBest,
                                            pop[local_best].genome);
        const auto decision =
            comm.try_recv_values<std::uint8_t>(coordinator, kTagDecision);
        // A coordinator death mid-decision is indistinguishable from "keep
        // going"; the next generation's sync elects a successor.
        stop = decision && !decision->empty() && (*decision)[0] != 0;
      }
      if (stop) break;
    }
    any_island_finished.store(true, std::memory_order_release);
    (void)kTagResult;
  });
  CSTUNER_CHECK_MSG(any_island_finished.load(std::memory_order_acquire),
                    "island GA: every island died before finishing");
  return result;
}

}  // namespace cstuner::ga
