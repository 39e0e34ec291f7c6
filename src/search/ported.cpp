#include "search/ported.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "ga/breeding.hpp"
#include "tuner/dataset.hpp"

namespace cstuner::search {

using baselines::apply_combo;
using baselines::enumerate_combos;
using baselines::fitness_of;
using baselines::genome_to_setting;
using baselines::parameter_cardinalities;
using baselines::setting_to_genome;
using space::kParamCount;
using space::ParamId;
using space::Setting;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------------------
// IslandGaOptimizer

IslandGaOptimizer::IslandGaOptimizer(std::string name, ga::GaOptions ga,
                                     std::uint64_t seed)
    : name_(std::move(name)), ga_(ga), seed_(seed) {
  CSTUNER_CHECK(ga_.sub_populations >= 1);
  CSTUNER_CHECK(ga_.population_size >= 2);
}

void IslandGaOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
  pruner_.emplace(*space_);
  cards_ = parameter_cardinalities(*space_);
  islands_.resize(static_cast<std::size_t>(ga_.sub_populations));
  for (std::size_t r = 0; r < islands_.size(); ++r) {
    // The concurrent IslandGa's per-rank stream, bit for bit.
    islands_[r].rng = Rng(hash_combine(seed_, r + 101));
  }
  pending_.resize(islands_.size());
  slot_index_.resize(islands_.size());
}

void IslandGaOptimizer::encode_island(std::size_t r,
                                      std::vector<Setting>& batch) {
  std::vector<Setting> candidates;
  candidates.reserve(pending_[r].size());
  for (const auto& genome : pending_[r]) {
    candidates.push_back(genome_to_setting(*space_, genome));
  }
  const auto keep = pruner_->filter(candidates);
  slot_index_[r].assign(candidates.size(), -1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i]) {
      slot_index_[r][i] = static_cast<std::ptrdiff_t>(batch.size());
      batch.push_back(candidates[i]);
    }
  }
}

std::vector<Setting> IslandGaOptimizer::propose() {
  std::vector<Setting> batch;
  if (!initialized_) {
    // Initial populations, in rank order, from each island's own stream.
    for (std::size_t r = 0; r < islands_.size(); ++r) {
      auto& island = islands_[r];
      pending_[r].clear();
      pending_[r].reserve(static_cast<std::size_t>(ga_.population_size));
      for (int i = 0; i < ga_.population_size; ++i) {
        pending_[r].push_back(
            setting_to_genome(*space_, space_->random_valid(island.rng)));
      }
      encode_island(r, batch);
    }
    return batch;
  }
  if (gens_done_ >= ga_.max_generations) return {};
  for (std::size_t r = 0; r < islands_.size(); ++r) {
    auto& island = islands_[r];
    pending_[r] = ga::breed_generation(island.genomes, island.fitnesses,
                                       cards_, ga_.crossover_rate,
                                       ga_.mutation_rate, island.rng);
    encode_island(r, batch);
  }
  return batch;
}

void IslandGaOptimizer::observe(const std::vector<Setting>& batch,
                                const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  // Per-slot fitness: measured, or the penalty for pruned-out genomes.
  std::vector<std::vector<double>> fits(islands_.size());
  for (std::size_t r = 0; r < islands_.size(); ++r) {
    fits[r].resize(pending_[r].size());
    for (std::size_t i = 0; i < pending_[r].size(); ++i) {
      const std::ptrdiff_t at = slot_index_[r][i];
      fits[r][i] = fitness_of(
          at >= 0 ? results[static_cast<std::size_t>(at)].time_or_inf()
                  : kInf);
    }
  }
  if (!initialized_) {
    for (std::size_t r = 0; r < islands_.size(); ++r) {
      islands_[r].genomes = std::move(pending_[r]);
      islands_[r].fitnesses = std::move(fits[r]);
    }
    initialized_ = true;
    mark_ = false;
    return;
  }
  auto best_of = [](const std::vector<double>& f) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < f.size(); ++i) {
      if (f[i] > f[best]) best = i;
    }
    return best;
  };
  auto worst_of = [](const std::vector<double>& f) {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < f.size(); ++i) {
      if (f[i] < f[worst]) worst = i;
    }
    return worst;
  };
  // Elitism per island: the best parent survives over the worst child.
  for (std::size_t r = 0; r < islands_.size(); ++r) {
    auto& island = islands_[r];
    const std::size_t elite = best_of(island.fitnesses);
    const std::size_t worst_child = worst_of(fits[r]);
    if (island.fitnesses[elite] > fits[r][worst_child]) {
      pending_[r][worst_child] = island.genomes[elite];
      fits[r][worst_child] = island.fitnesses[elite];
    }
    island.genomes = std::move(pending_[r]);
    island.fitnesses = std::move(fits[r]);
  }
  // Ring migration. Two phases, exactly like the concurrent version, where
  // every island computes its outgoing elites from its post-elitism
  // population before any island applies what it received.
  const std::size_t gen = gens_done_ + 1;
  if (islands_.size() > 1 &&
      gen % static_cast<std::size_t>(ga_.migration_interval) == 0) {
    struct Migrant {
      ga::Genome genome;
      double fitness;
    };
    const auto m = static_cast<std::size_t>(
        std::min<int>(ga_.migrants, ga_.population_size));
    std::vector<std::vector<Migrant>> outgoing(islands_.size());
    for (std::size_t r = 0; r < islands_.size(); ++r) {
      const auto& island = islands_[r];
      std::vector<std::size_t> order(island.genomes.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      // The concurrent version sorts Individual structs with std::sort and
      // a strict fitness comparator; sorting indices with the same
      // comparator over the same values reproduces its (deterministic,
      // same-binary) permutation.
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return island.fitnesses[a] > island.fitnesses[b];
                });
      outgoing[r].reserve(m);
      for (std::size_t i = 0; i < m; ++i) {
        outgoing[r].push_back(
            {island.genomes[order[i]], island.fitnesses[order[i]]});
      }
    }
    for (std::size_t r = 0; r < islands_.size(); ++r) {
      auto& island = islands_[r];
      const std::size_t left = (r + islands_.size() - 1) % islands_.size();
      for (const auto& migrant : outgoing[left]) {
        const std::size_t worst = worst_of(island.fitnesses);
        if (migrant.fitness > island.fitnesses[worst]) {
          island.genomes[worst] = migrant.genome;
          island.fitnesses[worst] = migrant.fitness;
        }
      }
    }
  }
  ++gens_done_;
  mark_ = true;
}

// ---------------------------------------------------------------------------
// HillClimbOptimizer

HillClimbOptimizer::HillClimbOptimizer(ga::GaOptions ga, std::uint64_t seed)
    : seed_(seed),
      moves_per_iteration_(ga.sub_populations * ga.population_size) {
  CSTUNER_CHECK(moves_per_iteration_ >= 1);
}

void HillClimbOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
  rng_ = Rng(seed_);
}

std::vector<Setting> HillClimbOptimizer::propose() {
  if (phase_ == Phase::kStart) {
    current_ = space_->random_valid(rng_);
    return {current_};
  }
  if (phase_ == Phase::kRestart) return {current_};
  std::vector<Setting> neighbors;
  neighbors.reserve(static_cast<std::size_t>(moves_per_iteration_));
  for (int m = 0; m < moves_per_iteration_; ++m) {
    Setting neighbor = current_;
    const auto pid = static_cast<ParamId>(rng_.index(kParamCount));
    const auto& p = space_->parameter(pid);
    const std::size_t idx = p.value_index(neighbor.get(pid));
    // Note the short-circuit: no coin is spent when idx == 0, exactly as
    // in the original.
    const std::size_t next = (idx == 0 || rng_.bernoulli(0.5))
                                 ? std::min(idx + 1, p.cardinality() - 1)
                                 : idx - 1;
    neighbor.set(pid, p.values[next]);
    neighbors.push_back(space_->checker().repaired(neighbor));
  }
  return neighbors;
}

void HillClimbOptimizer::observe(const std::vector<Setting>& batch,
                                 const std::vector<tuner::EvalResult>& results) {
  if (phase_ != Phase::kMoves) {
    // Start or restart point measured; the move loop may now be stopped.
    current_time_ = results[0].time_or_inf();
    phase_ = Phase::kMoves;
    mark_ = false;
    allow_stop_ = true;
    return;
  }
  Setting best_neighbor = current_;
  double best_time = current_time_;
  for (std::size_t m = 0; m < results.size(); ++m) {
    if (results[m].time_or_inf() < best_time) {
      best_time = results[m].time_or_inf();
      best_neighbor = batch[m];
    }
  }
  mark_ = true;
  if (best_time < current_time_) {
    current_ = best_neighbor;
    current_time_ = best_time;
    allow_stop_ = true;
  } else {
    // Local optimum: random restart. The original measures the restart
    // point before its next stop consult, so stop checks stay off until
    // the restart's observe.
    current_ = space_->random_valid(rng_);
    phase_ = Phase::kRestart;
    allow_stop_ = false;
  }
}

// ---------------------------------------------------------------------------
// OpenTunerDeOptimizer

OpenTunerDeOptimizer::OpenTunerDeOptimizer(ga::GaOptions ga,
                                           std::uint64_t seed)
    : seed_(seed),
      pop_size_(static_cast<std::size_t>(ga.sub_populations *
                                         ga.population_size)) {
  CSTUNER_CHECK(pop_size_ >= 4);
}

namespace {

constexpr double kDeF = 0.5;   // differential weight
constexpr double kDeCr = 0.9;  // crossover probability

Setting de_vec_to_setting(const space::SearchSpace& space,
                          const std::vector<std::uint32_t>& cards,
                          const std::vector<double>& v) {
  ga::Genome genome(kParamCount);
  for (std::size_t i = 0; i < kParamCount; ++i) {
    const double clamped =
        std::clamp(v[i], 0.0, static_cast<double>(cards[i] - 1));
    genome[i] = static_cast<std::uint32_t>(std::lround(clamped));
  }
  return genome_to_setting(space, genome);
}

}  // namespace

void OpenTunerDeOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
  evaluator_ = &evaluator;
  rng_ = Rng(seed_);
  pruner_.emplace(*space_);
  cards_ = parameter_cardinalities(*space_);
  population_.resize(pop_size_);
  times_.assign(pop_size_, kInf);
}

std::vector<Setting> OpenTunerDeOptimizer::propose() {
  if (!seeded_) {
    std::vector<Setting> seeds;
    seeds.reserve(pop_size_);
    for (std::size_t i = 0; i < pop_size_; ++i) {
      const Setting seed_setting = space_->random_valid(rng_);
      population_[i].resize(kParamCount);
      for (std::size_t d = 0; d < kParamCount; ++d) {
        const auto& p = space_->parameters()[d];
        population_[i][d] = static_cast<double>(
            p.value_index(seed_setting.get(static_cast<ParamId>(d))));
      }
      seeds.push_back(de_vec_to_setting(*space_, cards_, population_[i]));
    }
    return seeds;
  }
  // The original also exhausts when the population goes stale: further
  // generations would only replay cached evaluations.
  while (stale_generations_ < 50) {
    evals_before_ = evaluator_->unique_evaluations();
    trials_.assign(pop_size_, {});
    std::vector<Setting> trial_settings;
    trial_settings.reserve(pop_size_);
    for (std::size_t i = 0; i < pop_size_; ++i) {
      // DE/rand/1/bin mutant, with the original's exact draw order (the
      // forced dimension spends no coin).
      std::size_t a = rng_.index(pop_size_), b = rng_.index(pop_size_),
                  c = rng_.index(pop_size_);
      trials_[i] = population_[i];
      const std::size_t forced = rng_.index(kParamCount);
      for (std::size_t d = 0; d < kParamCount; ++d) {
        if (d == forced || rng_.bernoulli(kDeCr)) {
          trials_[i][d] = population_[a][d] +
                          kDeF * (population_[b][d] - population_[c][d]);
        }
      }
      trial_settings.push_back(de_vec_to_setting(*space_, cards_, trials_[i]));
    }
    const auto keep = pruner_->filter(trial_settings);
    std::vector<Setting> kept;
    kept_pos_.clear();
    kept.reserve(trial_settings.size());
    for (std::size_t i = 0; i < trial_settings.size(); ++i) {
      if (keep[i]) {
        kept.push_back(trial_settings[i]);
        kept_pos_.push_back(i);
      }
    }
    if (!kept.empty()) return kept;
    // Every trial pruned: the original would run an empty batch, select
    // nothing, mark the iteration and count the generation stale. Settle
    // that here (an empty propose means "exhausted" to the driver).
    evaluator_->mark_iteration();
    ++stale_generations_;
  }
  return {};
}

void OpenTunerDeOptimizer::observe(const std::vector<Setting>& batch,
                                   const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  if (!seeded_) {
    times_.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      times_[i] = results[i].time_or_inf();
    }
    seeded_ = true;
    mark_ = true;
    allow_stop_ = true;
    return;
  }
  std::vector<double> trial_times(pop_size_, kInf);
  for (std::size_t j = 0; j < results.size(); ++j) {
    trial_times[kept_pos_[j]] = results[j].time_or_inf();
  }
  for (std::size_t i = 0; i < pop_size_; ++i) {
    if (trial_times[i] < times_[i]) {
      population_[i] = std::move(trials_[i]);
      times_[i] = trial_times[i];
    }
  }
  mark_ = true;
  // Stale accounting runs after the driver's mark; marking does not touch
  // the unique-evaluation count, so reading it here matches the original.
  stale_generations_ =
      (evaluator_->unique_evaluations() == evals_before_)
          ? stale_generations_ + 1
          : 0;
}

// ---------------------------------------------------------------------------
// GarveyOptimizer

GarveyOptimizer::GarveyOptimizer(baselines::GarveyOptions options)
    : options_(options) {}

void GarveyOptimizer::set_dataset(tuner::PerfDataset dataset) {
  preset_dataset_ = std::move(dataset);
}

void GarveyOptimizer::bind(tuner::Evaluator& evaluator) {
  using namespace space;
  space_ = &evaluator.space();
  rng_ = Rng(options_.seed);

  // Offline stages, verbatim from baselines::Garvey::tune: dataset, forest,
  // memory-flag prediction. The dataset measures through the simulator
  // directly, so none of it charges the evaluator's clock — bind() keeps
  // the "no evaluations" contract. A preset dataset draws nothing from the
  // RNG, exactly as in the original.
  const tuner::PerfDataset dataset =
      preset_dataset_.has_value()
          ? *preset_dataset_
          : tuner::collect_dataset(*space_, evaluator.simulator(),
                                   options_.dataset_size, rng_,
                                   evaluator.thread_pool());
  std::vector<double> features;
  features.reserve(dataset.size() * kParamCount);
  for (const auto& s : dataset.settings) {
    const auto row = SearchSpace::to_feature_row(s);
    features.insert(features.end(), row.begin(), row.end());
  }
  ml::TableView table{features, dataset.size(), kParamCount};
  std::vector<double> log_times(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    log_times[i] = std::log(std::max(dataset.times_ms[i], 1e-9));
  }
  ml::RandomForest forest(ml::TreeTask::kRegression, options_.forest);
  forest.fit(table, log_times, rng_);

  std::pair<std::int64_t, std::int64_t> chosen_memory{kOn, kOn};
  double best_pred = kInf;
  for (std::int64_t sh : {kOff, kOn}) {
    for (std::int64_t co : {kOff, kOn}) {
      double sum = 0.0;
      for (const auto& s : dataset.settings) {
        Setting probe = s;
        probe.set(kUseShared, sh);
        probe.set(kUseConstant, co);
        sum += forest.predict(SearchSpace::to_feature_row(probe));
      }
      if (sum < best_pred) {
        best_pred = sum;
        chosen_memory = {sh, co};
      }
    }
  }

  groups_ = {
      {kTBx, kUFx, kCMx, kBMx},
      {kTBy, kUFy, kCMy, kBMy},
      {kTBz, kUFz, kCMz, kBMz},
      {kUseStreaming, kSD, kSB},
      {kUseRetiming, kUsePrefetching},
  };
  base_ = Setting();
  base_.set(kTBx, 32);
  base_.set(kUseShared, chosen_memory.first);
  base_.set(kUseConstant, chosen_memory.second);
  base_ = space_->checker().repaired(base_);
}

std::vector<Setting> GarveyOptimizer::propose() {
  if (!base_proposed_) {
    base_proposed_ = true;
    return {base_};
  }
  while (group_idx_ < groups_.size()) {
    const auto& group = groups_[group_idx_];
    if (!combos_ready_) {
      combos_ = enumerate_combos(*space_, group, options_.max_group_combos,
                                 rng_);
      rng_.shuffle(combos_);
      const auto keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(options_.sampling_ratio *
                                      static_cast<double>(combos_.size())));
      combos_.resize(std::min(combos_.size(), keep));
      cursor_ = 0;
      best_combo_.clear();
      best_time_ = kInf;
      combos_ready_ = true;
    }
    if (cursor_ >= combos_.size()) {
      // Group swept: the best finite combo folds into the base setting.
      if (!best_combo_.empty() && std::isfinite(best_time_)) {
        base_ = apply_combo(*space_, group, best_combo_, base_);
      }
      ++group_idx_;
      combos_ready_ = false;
      continue;
    }
    const std::size_t chunk_end = std::min(
        cursor_ + static_cast<std::size_t>(options_.evals_per_iteration),
        combos_.size());
    std::vector<Setting> candidates;
    candidates.reserve(chunk_end - cursor_);
    for (std::size_t k = cursor_; k < chunk_end; ++k) {
      candidates.push_back(apply_combo(*space_, group, combos_[k], base_));
    }
    chunk_start_ = cursor_;
    cursor_ = chunk_end;
    return candidates;
  }
  return {};
}

void GarveyOptimizer::observe(const std::vector<Setting>& batch,
                              const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  if (chunk_start_ == 0 && group_idx_ == 0 && !combos_ready_) {
    // The base measurement; the original neither marks nor stops on it.
    mark_ = false;
    allow_stop_ = true;
    return;
  }
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (results[k].time_or_inf() < best_time_) {
      best_time_ = results[k].time_or_inf();
      best_combo_ = combos_[chunk_start_ + k];
    }
  }
  mark_ = true;
  allow_stop_ = true;
}

// ---------------------------------------------------------------------------
// ArtemisOptimizer

ArtemisOptimizer::ArtemisOptimizer(baselines::ArtemisOptions options)
    : options_(options) {
  CSTUNER_CHECK(options_.survivors >= 1);
}

void ArtemisOptimizer::bind(tuner::Evaluator& evaluator) {
  using namespace space;
  space_ = &evaluator.space();
  rng_ = Rng(options_.seed);
  stages_ = {
      {kTBx, kTBy, kTBz, kUseShared},
      {kUseStreaming, kSD, kSB, kUsePrefetching},
      {kCMx, kCMy, kCMz, kBMx, kBMy, kBMz},
      {kUFx, kUFy, kUFz, kUseRetiming, kUseConstant},
  };
}

std::vector<Setting> ArtemisOptimizer::propose() {
  using namespace space;
  if (!seeded_) {
    std::vector<Setting> seeds;
    Setting naive;
    naive.set(kTBx, 32);
    naive = space_->checker().canonicalized(naive);
    if (space_->is_valid(naive)) seeds.push_back(naive);
    while (seeds.size() < options_.survivors) {
      seeds.push_back(space_->random_valid(rng_));
    }
    return seeds;
  }
  while (stage_idx_ < stages_.size()) {
    if (!stage_open_) {
      combos_per_candidate_ = std::max<std::size_t>(
          1, options_.max_stage_combos /
                 std::max<std::size_t>(1, survivors_.size()));
      pool_ = survivors_;  // survivors stay eligible
      cand_idx_ = 0;
      combos_ready_ = false;
      stage_open_ = true;
    }
    if (cand_idx_ >= survivors_.size()) {
      close_stage();
      continue;
    }
    if (!combos_ready_) {
      combos_ = enumerate_combos(*space_, stages_[stage_idx_],
                                 combos_per_candidate_, rng_);
      combo_idx_ = 0;
      combos_ready_ = true;
    }
    if (combo_idx_ >= combos_.size()) {
      ++cand_idx_;
      combos_ready_ = false;
      continue;
    }
    // Strictly per-eval, like the original: batching would overshoot tight
    // budgets by a whole chunk.
    return {apply_combo(*space_, stages_[stage_idx_], combos_[combo_idx_],
                        survivors_[cand_idx_].setting)};
  }
  return {};
}

void ArtemisOptimizer::close_stage() {
  std::sort(pool_.begin(), pool_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.time_ms < b.time_ms;
            });
  std::vector<Candidate> next;
  for (const auto& c : pool_) {
    bool duplicate = false;
    for (const auto& kept : next) {
      if (kept.setting == c.setting) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) next.push_back(c);
    if (next.size() == options_.survivors) break;
  }
  if (!next.empty()) survivors_ = std::move(next);
  ++stage_idx_;
  stage_open_ = false;
}

void ArtemisOptimizer::observe(const std::vector<Setting>& batch,
                               const std::vector<tuner::EvalResult>& results) {
  if (!seeded_) {
    survivors_.clear();
    survivors_.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      survivors_.push_back({batch[i], results[i].time_or_inf()});
    }
    since_mark_ = survivors_.size();
    seeded_ = true;
    mark_ = false;
    allow_stop_ = true;
    return;
  }
  const double t = results[0].time_or_inf();
  if (std::isfinite(t)) pool_.push_back({batch[0], t});
  ++combo_idx_;
  mark_ = false;
  if (++since_mark_ ==
      static_cast<std::size_t>(options_.evals_per_iteration)) {
    mark_ = true;
    since_mark_ = 0;
  }
  allow_stop_ = true;
}

void ArtemisOptimizer::finish(tuner::Evaluator& evaluator) {
  if (seeded_ && since_mark_ > 0) {
    evaluator.mark_iteration();
    since_mark_ = 0;
  }
}

// ---------------------------------------------------------------------------
// RandomOptimizer

RandomOptimizer::RandomOptimizer(std::uint64_t seed) : seed_(seed) {}

void RandomOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
}

std::vector<Setting> RandomOptimizer::propose() {
  // Every step draws from its own (seed, step)-derived stream, so the only
  // mutable state is the step counter and mid-run restore is exact.
  Rng rng(hash_combine(hash_combine(seed_, 0x52414E44u), completed_steps()));
  std::vector<Setting> batch;
  batch.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(space_->random_valid(rng));
  }
  return batch;
}

void RandomOptimizer::observe(const std::vector<Setting>& batch,
                              const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  (void)results;
}

bool RandomOptimizer::restore_state(const JsonValue& state) {
  completed_steps_ = static_cast<std::size_t>(state.at("steps").as_u64());
  return true;
}

// ---------------------------------------------------------------------------
// SpreadOptimizer

SpreadOptimizer::SpreadOptimizer(std::uint64_t seed, std::size_t sample_size)
    : seed_(seed), sample_size_(sample_size) {
  CSTUNER_CHECK(sample_size_ >= 1);
}

void SpreadOptimizer::bind(tuner::Evaluator& evaluator) {
  if (!sampled_) {
    // The sample is a pure function of (space, seed) — the exact-count
    // proportioned spread is bit-identical for any worker count — so a
    // restored instance rebuilds the identical sequence here.
    space::LazyUniverse universe(evaluator.space(), {},
                                 evaluator.thread_pool());
    const auto k = static_cast<std::size_t>(std::min<std::uint64_t>(
        sample_size_, universe.valid_count()));
    sample_ = universe.spread_sample(k, seed_);
    sampled_ = true;
  }
}

std::vector<Setting> SpreadOptimizer::propose() {
  const std::size_t begin = completed_steps() * kBatch;
  if (begin >= sample_.size()) return {};
  const std::size_t end = std::min(begin + kBatch, sample_.size());
  return {sample_.begin() + static_cast<std::ptrdiff_t>(begin),
          sample_.begin() + static_cast<std::ptrdiff_t>(end)};
}

void SpreadOptimizer::observe(const std::vector<Setting>& batch,
                              const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  (void)results;
}

bool SpreadOptimizer::restore_state(const JsonValue& state) {
  completed_steps_ = static_cast<std::size_t>(state.at("steps").as_u64());
  return true;
}

}  // namespace cstuner::search
