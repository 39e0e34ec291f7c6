#include "search/novel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/subspace.hpp"

namespace cstuner::search {

using space::kParamCount;
using space::ParamId;
using space::Setting;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every step draws from its own (seed, tag, step)-derived stream; the
/// stream never outlives the step, so no generator state needs serializing.
Rng step_rng(std::uint64_t seed, std::uint64_t tag, std::size_t step) {
  return Rng(hash_combine(hash_combine(seed, tag), step));
}

/// One-parameter move to an adjacent admissible value, repaired.
Setting adjacent_move(const space::SearchSpace& space, Setting s, Rng& rng) {
  const auto pid = static_cast<ParamId>(rng.index(kParamCount));
  const auto& p = space.parameter(pid);
  const std::size_t idx = p.value_index(s.get(pid));
  const std::size_t next = (idx == 0 || rng.bernoulli(0.5))
                               ? std::min(idx + 1, p.cardinality() - 1)
                               : idx - 1;
  s.set(pid, p.values[next]);
  return space.checker().repaired(s);
}

/// Continuous value-index vector -> nearest admissible setting.
Setting vec_to_setting(const space::SearchSpace& space,
                       const std::vector<std::uint32_t>& cards,
                       const std::vector<double>& v) {
  ga::Genome genome(kParamCount);
  for (std::size_t i = 0; i < kParamCount; ++i) {
    const double clamped =
        std::clamp(v[i], 0.0, static_cast<double>(cards[i] - 1));
    genome[i] = static_cast<std::uint32_t>(std::lround(clamped));
  }
  return baselines::genome_to_setting(space, genome);
}

std::vector<double> setting_indices(const space::SearchSpace& space,
                                    const Setting& s) {
  std::vector<double> v(kParamCount);
  for (std::size_t d = 0; d < kParamCount; ++d) {
    const auto& p = space.parameters()[d];
    v[d] = static_cast<double>(p.value_index(s.get(static_cast<ParamId>(d))));
  }
  return v;
}

/// Standard normal CDF / PDF, for the expected-improvement score.
double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
}

}  // namespace

// ---------------------------------------------------------------------------
// AnnealOptimizer

namespace {
constexpr double kAnnealT0 = 0.30;     // initial relative-slowdown tolerance
constexpr double kAnnealAlpha = 0.97;  // geometric cooling per step
constexpr std::uint64_t kAnnealMoveTag = 0xA11EA1;
constexpr std::uint64_t kAnnealAcceptTag = 0xACCE97;
}  // namespace

AnnealOptimizer::AnnealOptimizer(std::uint64_t seed) : seed_(seed) {}

void AnnealOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
}

std::vector<Setting> AnnealOptimizer::propose() {
  Rng rng = step_rng(seed_, kAnnealMoveTag, completed_steps());
  std::vector<Setting> batch;
  batch.reserve(kWalkers);
  if (current_.empty()) {
    for (std::size_t i = 0; i < kWalkers; ++i) {
      batch.push_back(space_->random_valid(rng));
    }
    return batch;
  }
  for (const auto& walker : current_) {
    batch.push_back(adjacent_move(*space_, walker, rng));
  }
  return batch;
}

void AnnealOptimizer::observe(const std::vector<Setting>& batch,
                              const std::vector<tuner::EvalResult>& results) {
  if (current_.empty()) {
    current_ = batch;
    current_times_.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      current_times_[i] = results[i].time_or_inf();
    }
    return;
  }
  Rng rng = step_rng(seed_, kAnnealAcceptTag, completed_steps());
  const double temperature =
      kAnnealT0 *
      std::pow(kAnnealAlpha, static_cast<double>(completed_steps() - 1));
  for (std::size_t i = 0; i < current_.size(); ++i) {
    const double t_new = results[i].time_or_inf();
    const double t_cur = current_times_[i];
    bool accept = t_new < t_cur;
    if (!accept && std::isfinite(t_new) && std::isfinite(t_cur)) {
      // Metropolis on the relative slowdown, so the acceptance scale is
      // stencil-independent.
      const double slowdown = (t_new - t_cur) / t_cur;
      accept = rng.uniform() <
               std::exp(-slowdown / std::max(temperature, 1e-12));
    }
    if (accept) {
      current_[i] = batch[i];
      current_times_[i] = t_new;
    }
  }
}

// ---------------------------------------------------------------------------
// PsoOptimizer

namespace {
constexpr double kPsoInertia = 0.72;
constexpr double kPsoCognitive = 1.49;
constexpr double kPsoSocial = 1.49;
constexpr std::uint64_t kPsoTag = 0x9507;
}  // namespace

PsoOptimizer::PsoOptimizer(std::uint64_t seed) : seed_(seed) {}

void PsoOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
  cards_ = baselines::parameter_cardinalities(*space_);
}

std::vector<Setting> PsoOptimizer::propose() {
  Rng rng = step_rng(seed_, kPsoTag, completed_steps());
  std::vector<Setting> batch;
  batch.reserve(kParticles);
  if (positions_.empty()) {
    positions_.resize(kParticles);
    velocities_.assign(kParticles, std::vector<double>(kParamCount, 0.0));
    for (std::size_t i = 0; i < kParticles; ++i) {
      positions_[i] = setting_indices(*space_, space_->random_valid(rng));
      batch.push_back(vec_to_setting(*space_, cards_, positions_[i]));
    }
    return batch;
  }
  for (std::size_t i = 0; i < kParticles; ++i) {
    for (std::size_t d = 0; d < kParamCount; ++d) {
      const double r1 = rng.uniform();
      const double r2 = rng.uniform();
      velocities_[i][d] =
          kPsoInertia * velocities_[i][d] +
          kPsoCognitive * r1 * (pbest_pos_[i][d] - positions_[i][d]) +
          kPsoSocial * r2 * (gbest_pos_[d] - positions_[i][d]);
      positions_[i][d] =
          std::clamp(positions_[i][d] + velocities_[i][d], 0.0,
                     static_cast<double>(cards_[d] - 1));
    }
    batch.push_back(vec_to_setting(*space_, cards_, positions_[i]));
  }
  return batch;
}

void PsoOptimizer::observe(const std::vector<Setting>& batch,
                           const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  if (pbest_pos_.empty()) {
    pbest_pos_ = positions_;
    pbest_times_.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      pbest_times_[i] = results[i].time_or_inf();
    }
    gbest_time_ = kInf;
    for (std::size_t i = 0; i < pbest_times_.size(); ++i) {
      if (pbest_times_[i] < gbest_time_) {
        gbest_time_ = pbest_times_[i];
        gbest_pos_ = pbest_pos_[i];
      }
    }
    // An all-invalid initial swarm still needs a defined attractor.
    if (gbest_pos_.empty()) gbest_pos_ = pbest_pos_.front();
    return;
  }
  for (std::size_t i = 0; i < kParticles; ++i) {
    const double t = results[i].time_or_inf();
    if (t < pbest_times_[i]) {
      pbest_times_[i] = t;
      pbest_pos_[i] = positions_[i];
    }
    if (t < gbest_time_) {
      gbest_time_ = t;
      gbest_pos_ = positions_[i];
    }
  }
}

// ---------------------------------------------------------------------------
// NativeDeOptimizer

namespace {
constexpr double kNativeDeF = 0.7;    // differential weight
constexpr double kNativeDeCr = 0.85;  // crossover probability
constexpr std::uint64_t kNativeDeTag = 0xDE01;
}  // namespace

NativeDeOptimizer::NativeDeOptimizer(std::uint64_t seed) : seed_(seed) {}

void NativeDeOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
  cards_ = baselines::parameter_cardinalities(*space_);
}

std::vector<Setting> NativeDeOptimizer::propose() {
  Rng rng = step_rng(seed_, kNativeDeTag, completed_steps());
  std::vector<Setting> batch;
  batch.reserve(kPopulation);
  if (positions_.empty()) {
    positions_.resize(kPopulation);
    for (std::size_t i = 0; i < kPopulation; ++i) {
      positions_[i] = setting_indices(*space_, space_->random_valid(rng));
      batch.push_back(vec_to_setting(*space_, cards_, positions_[i]));
    }
    return batch;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    if (times_[i] < times_[best]) best = i;
  }
  trials_.assign(kPopulation, {});
  for (std::size_t i = 0; i < kPopulation; ++i) {
    // DE/best/1/bin: perturb the incumbent with one random difference pair.
    const std::size_t a = rng.index(kPopulation);
    const std::size_t b = rng.index(kPopulation);
    trials_[i] = positions_[i];
    const std::size_t forced = rng.index(kParamCount);
    for (std::size_t d = 0; d < kParamCount; ++d) {
      if (d == forced || rng.bernoulli(kNativeDeCr)) {
        trials_[i][d] = positions_[best][d] +
                        kNativeDeF * (positions_[a][d] - positions_[b][d]);
      }
    }
    batch.push_back(vec_to_setting(*space_, cards_, trials_[i]));
  }
  return batch;
}

void NativeDeOptimizer::observe(const std::vector<Setting>& batch,
                                const std::vector<tuner::EvalResult>& results) {
  (void)batch;
  if (times_.empty()) {
    times_.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      times_[i] = results[i].time_or_inf();
    }
    return;
  }
  for (std::size_t i = 0; i < kPopulation; ++i) {
    const double t = results[i].time_or_inf();
    if (t < times_[i]) {
      positions_[i] = std::move(trials_[i]);
      times_[i] = t;
    }
  }
}

// ---------------------------------------------------------------------------
// SurrogateOptimizer

namespace {
constexpr std::uint64_t kSurrogatePoolTag = 0x5A6A;
constexpr std::uint64_t kSurrogateFitTag = 0xF17;
}  // namespace

SurrogateOptimizer::SurrogateOptimizer(std::uint64_t seed) : seed_(seed) {}

void SurrogateOptimizer::bind(tuner::Evaluator& evaluator) {
  space_ = &evaluator.space();
}

std::vector<Setting> SurrogateOptimizer::propose() {
  Rng rng = step_rng(seed_, kSurrogatePoolTag, completed_steps());
  if (history_.size() < kMinHistory) {
    // Bootstrap: the forest needs a few finite measurements first.
    std::vector<Setting> batch;
    batch.reserve(kInitBatch);
    for (std::size_t i = 0; i < kInitBatch; ++i) {
      batch.push_back(space_->random_valid(rng));
    }
    return batch;
  }

  // Fresh forest over the whole history, log-time target (times span
  // orders of magnitude; log keeps the squared-error splits honest).
  const std::size_t n = history_.size();
  std::vector<double> features;
  features.reserve(n * kParamCount);
  std::vector<double> y(n);
  double best_time = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = space::SearchSpace::to_feature_row(history_[i].first);
    features.insert(features.end(), row.begin(), row.end());
    y[i] = std::log(std::max(history_[i].second, 1e-9));
    best_time = std::min(best_time, history_[i].second);
  }
  ml::ForestConfig config;
  config.n_trees = 16;
  ml::RandomForest forest(ml::TreeTask::kRegression, config);
  ml::TableView table{features, n, kParamCount};
  Rng fit_rng = step_rng(seed_, kSurrogateFitTag, completed_steps());
  forest.fit(table, y, fit_rng);
  const double y_best = std::log(std::max(best_time, 1e-9));

  // Elite incumbents for the exploitation half of the candidate pool.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return history_[a].second < history_[b].second;
  });
  const std::size_t n_elites = std::min(kElites, n);

  std::vector<Setting> pool;
  pool.reserve(kPool);
  std::unordered_set<std::uint64_t> pool_seen;
  for (std::size_t j = 0; j < kPool; ++j) {
    Setting candidate;
    if (j % 2 == 0) {
      candidate = space_->random_valid(rng);
    } else {
      candidate = history_[order[rng.index(n_elites)]].first;
      const std::size_t moves = 1 + rng.index(2);
      for (std::size_t m = 0; m < moves; ++m) {
        candidate = adjacent_move(*space_, candidate, rng);
      }
    }
    const std::uint64_t key = candidate.hash();
    if (seen_.count(key) != 0 || !pool_seen.insert(key).second) continue;
    pool.push_back(candidate);
  }
  if (pool.empty()) {
    // Everything deduplicated away (tiny spaces): keep the run alive with
    // plain random sampling.
    std::vector<Setting> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(space_->random_valid(rng));
    }
    return batch;
  }

  // Expected improvement below the incumbent, with the tree spread as the
  // predictive uncertainty.
  std::vector<double> ei(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto preds =
        forest.tree_predictions(space::SearchSpace::to_feature_row(pool[i]));
    double mu = 0.0;
    for (double p : preds) mu += p;
    mu /= static_cast<double>(preds.size());
    double var = 0.0;
    for (double p : preds) var += (p - mu) * (p - mu);
    var /= static_cast<double>(preds.size());
    const double sd = std::sqrt(var) + 1e-9;
    const double z = (y_best - mu) / sd;
    ei[i] = (y_best - mu) * normal_cdf(z) + sd * normal_pdf(z);
  }
  std::vector<std::size_t> ranked(pool.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](std::size_t a, std::size_t b) { return ei[a] > ei[b]; });
  std::vector<Setting> batch;
  const std::size_t take = std::min(kBatch, pool.size());
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) batch.push_back(pool[ranked[i]]);
  return batch;
}

void SurrogateOptimizer::observe(const std::vector<Setting>& batch,
                                 const std::vector<tuner::EvalResult>& results) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double t = results[i].time_or_inf();
    if (!std::isfinite(t) || history_.size() >= kHistoryCap) continue;
    if (seen_.insert(batch[i].hash()).second) {
      history_.emplace_back(batch[i], t);
    }
  }
}

}  // namespace cstuner::search
