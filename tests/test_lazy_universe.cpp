#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/propagate.hpp"
#include "analysis/pruner.hpp"
#include "analysis/space_lint.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/simulator.hpp"
#include "space/lazy_universe.hpp"
#include "stencil/stencils.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner {
namespace {

using namespace space;

/// Reduced Table I limits: small enough that the raw cartesian product
/// (~3.5M combinations) is brute-forceable, structured enough to keep every
/// constraint family active (streaming, coverage, unroll support, resources).
SpaceLimits reduced_limits() {
  SpaceLimits limits;
  limits.max_unroll = 2;
  limits.max_merge = 2;
  limits.max_tb_xy = 4;
  limits.max_tb_z = 2;
  return limits;
}

stencil::StencilSpec reduced_spec(const std::string& name) {
  return stencil::scaled_stencil(name, 16);
}

/// Ground truth: every raw combination filtered through the full checker.
std::vector<Setting> brute_force(const SearchSpace& space) {
  std::vector<Setting> out;
  const auto& params = space.parameters();
  Setting s;
  std::function<void(std::size_t)> rec = [&](std::size_t p) {
    if (p == kParamCount) {
      if (space.is_valid(s)) out.push_back(s);
      return;
    }
    for (const auto v : params[p].values) {
      s.set(static_cast<ParamId>(p), v);
      rec(p + 1);
    }
  };
  rec(0);
  return out;
}

std::array<std::int64_t, kParamCount> key_of(const Setting& s) {
  std::array<std::int64_t, kParamCount> key{};
  for (std::size_t p = 0; p < kParamCount; ++p) {
    key[p] = s.get(static_cast<ParamId>(p));
  }
  return key;
}

std::vector<std::array<std::int64_t, kParamCount>> sorted_keys(
    const std::vector<Setting>& settings) {
  std::vector<std::array<std::int64_t, kParamCount>> keys;
  keys.reserve(settings.size());
  for (const auto& s : settings) keys.push_back(key_of(s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// FNV-1a over the raw parameter values, order-sensitive.
std::uint64_t digest(const std::vector<Setting>& settings) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& s : settings) {
    for (std::size_t p = 0; p < kParamCount; ++p) {
      auto v = static_cast<std::uint64_t>(s.get(static_cast<ParamId>(p)));
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// -- LazyUniverse vs exhaustive ground truth --------------------------------

TEST(LazyUniverse, MatchesBruteForceOnReducedSpaces) {
  for (const char* name : {"j3d7pt", "hypterm"}) {
    SearchSpace space(reduced_spec(name), reduced_limits());
    const auto expected = brute_force(space);
    ASSERT_FALSE(expected.empty()) << name;

    LazyUniverse lazy(space);
    EXPECT_EQ(lazy.valid_count(), expected.size()) << name;

    const auto all = lazy.take_all();
    ASSERT_EQ(all.size(), expected.size()) << name;
    EXPECT_EQ(sorted_keys(all), sorted_keys(expected)) << name;

    // Every enumerated setting individually passes the checker.
    for (const auto& s : all) ASSERT_TRUE(space.is_valid(s));

    // Region counts partition the total.
    std::uint64_t by_region = 0;
    for (std::size_t r = 0; r < lazy.regions().size(); ++r) {
      by_region += lazy.region_count(r);
    }
    EXPECT_EQ(by_region, lazy.valid_count()) << name;
  }
}

TEST(LazyUniverse, ChunkedEnumerationMatchesTakeAll) {
  SearchSpace space(reduced_spec("j3d7pt"), reduced_limits());
  LazyUniverseOptions options;
  options.chunk = 1000;   // deliberately not a divisor of the total
  options.window = 4096;  // force several parallel windows
  LazyUniverse lazy(space, options);
  const auto all = lazy.take_all();

  // next_chunk: same settings in the same order, chunk bound respected.
  std::vector<Setting> chunked;
  std::vector<Setting> chunk;
  while (true) {
    chunk.clear();
    if (!lazy.next_chunk(chunk) && chunk.empty()) break;
    EXPECT_LE(chunk.size(), options.chunk);
    chunked.insert(chunked.end(), chunk.begin(), chunk.end());
    if (chunk.size() < options.chunk) break;
  }
  ASSERT_EQ(chunked.size(), all.size());
  EXPECT_EQ(digest(chunked), digest(all));

  // reset() rewinds to the exact same sequence.
  lazy.reset();
  chunk.clear();
  ASSERT_TRUE(lazy.next_chunk(chunk));
  ASSERT_FALSE(chunk.empty());
  EXPECT_EQ(key_of(chunk.front()), key_of(all.front()));

  // for_each_chunk: identical stream, windows notwithstanding.
  std::vector<Setting> streamed;
  lazy.for_each_chunk([&](const std::vector<Setting>& c) {
    EXPECT_LE(c.size(), options.chunk);
    streamed.insert(streamed.end(), c.begin(), c.end());
  });
  ASSERT_EQ(streamed.size(), all.size());
  EXPECT_EQ(digest(streamed), digest(all));
}

TEST(LazyUniverse, BitIdenticalAcrossWorkerCounts) {
  // Reduced space: the full enumeration digest must not depend on the pool.
  std::uint64_t full_digest = 0;
  // Full-size space (10^13 raw): the deterministic spread sample likewise.
  std::uint64_t sample_digest = 0;
  std::uint64_t exact_count = 0;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4},
                                    std::size_t{8}}) {
    ThreadPool pool(workers);
    {
      SearchSpace space(reduced_spec("j3d7pt"), reduced_limits());
      LazyUniverse lazy(space, {}, &pool);
      const std::uint64_t d = digest(lazy.take_all());
      if (workers == 0) full_digest = d;
      EXPECT_EQ(d, full_digest) << workers << " workers";
    }
    {
      SearchSpace space(stencil::make_stencil("j3d7pt"));
      LazyUniverse lazy(space, {}, &pool);
      if (workers == 0) exact_count = lazy.valid_count();
      EXPECT_EQ(lazy.valid_count(), exact_count) << workers << " workers";
      const std::uint64_t d = digest(lazy.spread_sample(5000));
      if (workers == 0) sample_digest = d;
      EXPECT_EQ(d, sample_digest) << workers << " workers";
    }
  }
  EXPECT_GT(exact_count, 0u);
}

TEST(LazyUniverse, SpreadSampleIsOrderedSubsetWithoutDuplicates) {
  SearchSpace space(reduced_spec("j3d7pt"), reduced_limits());
  LazyUniverse lazy(space);
  const auto all = lazy.take_all();
  const std::size_t k = 997;
  ASSERT_GT(all.size(), k);
  const auto sample = lazy.spread_sample(k);
  ASSERT_EQ(sample.size(), k);

  // A subsequence of the enumeration order: each sampled setting is found
  // in order by a single forward scan of the universe.
  std::size_t cursor = 0;
  for (const auto& s : sample) {
    while (cursor < all.size() && !(all[cursor] == s)) ++cursor;
    ASSERT_LT(cursor, all.size()) << "sample not in enumeration order";
    ++cursor;
  }

  std::set<std::array<std::int64_t, kParamCount>> unique;
  for (const auto& s : sample) unique.insert(key_of(s));
  EXPECT_EQ(unique.size(), sample.size());

  // Oversized requests degrade to the full universe.
  EXPECT_EQ(lazy.spread_sample(all.size() + 100).size(), all.size());
}

// -- Symbolic propagation vs exhaustive ground truth ------------------------

TEST(Propagate, ExactCountMatchesExhaustive) {
  SearchSpace space(reduced_spec("j3d7pt"), reduced_limits());
  const auto expected = brute_force(space);
  const auto result = analysis::propagate(space);
  EXPECT_EQ(result.valid_count, expected.size());

  std::uint64_t by_region = 0;
  for (const auto& summary : result.region_summaries) {
    by_region += summary.valid_count;
    if (summary.empty) EXPECT_EQ(summary.valid_count, 0u) << summary.label;
  }
  EXPECT_EQ(by_region, result.valid_count);
}

TEST(Propagate, DeadnessVerdictsMatchExhaustiveLiveness) {
  SearchSpace space(reduced_spec("hypterm"), reduced_limits());
  const auto settings = brute_force(space);
  const auto result = analysis::propagate(space);

  // Exhaustive per-(parameter, value) liveness.
  std::array<std::set<std::int64_t>, kParamCount> seen;
  for (const auto& s : settings) {
    for (std::size_t p = 0; p < kParamCount; ++p) {
      seen[p].insert(s.get(static_cast<ParamId>(p)));
    }
  }
  const auto& params = space.parameters();
  for (std::size_t p = 0; p < kParamCount; ++p) {
    const auto id = static_cast<ParamId>(p);
    for (std::size_t i = 0; i < params[p].values.size(); ++i) {
      const std::int64_t v = params[p].values[i];
      const bool live = seen[p].count(v) > 0;
      EXPECT_EQ(((result.live_masks[p] >> i) & 1U) != 0, live)
          << param_name(id) << "=" << v;
      EXPECT_EQ(result.value_proven_dead(id, v), !live)
          << param_name(id) << "=" << v;
    }
  }

  // Every certified dead pair really has no witness.
  for (const auto& pair : result.dead_pairs) {
    for (const auto& s : settings) {
      ASSERT_FALSE(s.get(pair.a) == pair.value_a &&
                   s.get(pair.b) == pair.value_b)
          << param_name(pair.a) << "=" << pair.value_a << " with "
          << param_name(pair.b) << "=" << pair.value_b;
    }
  }
  // The canonical-encoding holes (SD/prefetching without streaming) are
  // certified even in the reduced space.
  EXPECT_FALSE(result.dead_pairs.empty());
}

TEST(Propagate, FullSpaceProofsAndCountAgreeWithEnumerator) {
  SearchSpace space(stencil::make_stencil("hypterm"));
  const auto result = analysis::propagate(space);

  LazyUniverse lazy(space);
  EXPECT_EQ(result.valid_count, lazy.valid_count());

  // The known register-spill hole: merging 64 points per thread dies in
  // every dimension, and that is the space's entire proven-dead value set
  // (the space-analyze baseline lists the same six). Checking every value
  // keeps full-space liveness covered; the reduced-space test above checks
  // the verdicts against exhaustive enumeration.
  const std::set<std::pair<ParamId, std::int64_t>> expected_dead = {
      {kCMx, 64}, {kCMy, 64}, {kCMz, 64}, {kBMx, 64}, {kBMy, 64}, {kBMz, 64}};
  const auto& params = space.parameters();
  for (std::size_t p = 0; p < kParamCount; ++p) {
    const auto id = static_cast<ParamId>(p);
    for (std::size_t i = 0; i < params[p].values.size(); ++i) {
      const std::int64_t v = params[p].values[i];
      const bool dead = expected_dead.count({id, v}) > 0;
      EXPECT_EQ(result.value_proven_dead(id, v), dead)
          << param_name(id) << "=" << v;
      EXPECT_EQ(((result.live_masks[p] >> i) & 1U) == 0, dead)
          << param_name(id) << "=" << v;
    }
  }
  ASSERT_EQ(result.dead_values.size(), expected_dead.size());
  for (const auto& dead : result.dead_values) {
    EXPECT_EQ(dead.rule, "register-spill") << param_name(dead.param);
    EXPECT_FALSE(dead.certificate.empty()) << param_name(dead.param);
  }
  EXPECT_GT(result.rule_prunes.count("register-spill"), 0u);
}

// -- Dedup regression -------------------------------------------------------

TEST(SettingDedup, DistinguishesSettingsUnderForcedHashCollision) {
  // Every setting hashes to the same bucket: only content comparison can
  // tell them apart (the historical bug dropped distinct settings here).
  SettingDedup dedup([](const Setting&) { return std::uint64_t{42}; });
  Setting a;
  Setting b;
  b.set(kTBx, 2);
  EXPECT_TRUE(dedup.insert(a));
  EXPECT_TRUE(dedup.insert(b));
  EXPECT_FALSE(dedup.insert(a));
  EXPECT_FALSE(dedup.insert(b));
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(SettingDedup, SampleUniverseHasNoDuplicates) {
  SearchSpace space(stencil::make_stencil("j3d7pt"));
  Rng rng(7);
  const auto universe = space.sample_universe(rng, 500);
  std::set<std::array<std::int64_t, kParamCount>> unique;
  for (const auto& s : universe) unique.insert(key_of(s));
  EXPECT_EQ(unique.size(), universe.size());
}

// -- StaticPruner over propagated domains -----------------------------------

TEST(StaticPruner, DomainsRejectProvenDeadSettingsBeforeFullCheck) {
  SearchSpace space(stencil::make_stencil("hypterm"));
  analysis::StaticPruner pruner(space);
  analysis::PropagateOptions options;
  options.compute_counts = false;
  pruner.set_domains(std::make_shared<analysis::PropagationResult>(
      analysis::propagate(space, options)));

  Rng rng(11);
  Setting doomed = space.random_valid(rng);
  doomed.set(kCMx, 64);  // proven dead (register spill) in every region
  EXPECT_FALSE(pruner.is_valid(doomed));
  EXPECT_GE(pruner.stats().domain_pruned, 1u);

  // Agreement with the ground-truth checker on a random mix.
  for (int i = 0; i < 200; ++i) {
    const Setting s = space.random_setting(rng);
    EXPECT_EQ(pruner.is_valid(s), space.is_valid(s));
  }
}

// -- Lint verdict tiers -----------------------------------------------------

TEST(SpaceLint, SymbolicPathProvesCountsAndTagsVerdicts) {
  SearchSpace space(stencil::make_stencil("j3d7pt"));
  const auto lint = analysis::lint_space(space, analysis::propagate(space));
  EXPECT_GT(lint.valid_count, 0u);
  ASSERT_TRUE(lint.report.has_rule("space.valid-count"));

  bool saw_proven = false;
  bool saw_heuristic = false;
  for (const auto& d : lint.report.diagnostics()) {
    if (d.rule == "space.valid-count") {
      EXPECT_EQ(d.verdict, "proven");
      saw_proven = true;
    }
    if (d.rule == "space.valid-fraction") {
      EXPECT_EQ(d.verdict, "heuristic");
      saw_heuristic = true;
    }
  }
  EXPECT_TRUE(saw_proven);
  EXPECT_TRUE(saw_heuristic);

  // The verdict is rendered in text and emitted as a JSON field.
  EXPECT_NE(lint.report.to_string().find("(proven)"), std::string::npos);
  JsonWriter json;
  lint.report.write_json(json);
  const auto parsed = json_parse(json.str());
  bool json_verdict = false;
  for (const auto& d : parsed.as_array()) {
    if (const auto* v = d.find("verdict")) {
      if (v->as_string() == "proven") json_verdict = true;
    }
  }
  EXPECT_TRUE(json_verdict);
}

// -- CsTuner's enumerated universe ------------------------------------------

TEST(CsTunerEnumerate, TuneIsBitIdenticalAcrossWorkerCounts) {
  std::string best_setting;
  double best_ms = 0.0;
  std::size_t evals = 0;
  std::uint64_t exact = 0;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4},
                                    std::size_t{8}}) {
    const auto spec = stencil::make_stencil("j3d7pt");
    SearchSpace space(spec);
    gpusim::Simulator sim(gpusim::a100());
    ThreadPool pool(workers);
    tuner::Evaluator evaluator(sim, space, {}, 7);
    evaluator.set_thread_pool(&pool);

    core::CsTunerOptions options;
    options.universe_size = 2000;
    options.seed = 7;
    core::CsTuner tuner(options);
    tuner::StopCriteria stop;
    stop.max_virtual_seconds = 10.0;
    tuner.tune(evaluator, stop);

    ASSERT_TRUE(evaluator.best_setting().has_value());
    EXPECT_GT(tuner.report().universe_exact_count, options.universe_size);
    EXPECT_EQ(tuner.report().universe_count, options.universe_size);
    if (workers == 0) {
      best_setting = evaluator.best_setting()->to_string();
      best_ms = evaluator.best_time_ms();
      evals = evaluator.unique_evaluations();
      exact = tuner.report().universe_exact_count;
    }
    EXPECT_EQ(evaluator.best_setting()->to_string(), best_setting)
        << workers << " workers";
    EXPECT_EQ(evaluator.best_time_ms(), best_ms) << workers << " workers";
    EXPECT_EQ(evaluator.unique_evaluations(), evals) << workers << " workers";
    EXPECT_EQ(tuner.report().universe_exact_count, exact)
        << workers << " workers";
  }
}

TEST(CsTunerEnumerate, SmallSpaceIsEnumeratedInFull) {
  SpaceLimits limits;
  limits.max_unroll = 1;
  limits.max_merge = 1;
  limits.max_tb_xy = 2;
  limits.max_tb_z = 1;
  const auto spec = reduced_spec("j3d7pt");
  SearchSpace space(spec, limits);
  LazyUniverse lazy(space);
  ASSERT_GT(lazy.valid_count(), 0u);

  gpusim::Simulator sim(gpusim::a100());
  tuner::Evaluator evaluator(sim, space, {}, 7);
  core::CsTunerOptions options;
  options.universe_size = 100000;
  options.dataset_size = 32;
  core::CsTuner tuner(options);
  tuner::StopCriteria stop;
  stop.max_virtual_seconds = 5.0;
  tuner.tune(evaluator, stop);

  ASSERT_TRUE(evaluator.best_setting().has_value());
  // Below the universe cap the whole valid space becomes the universe.
  EXPECT_EQ(tuner.report().universe_exact_count, lazy.valid_count());
  EXPECT_EQ(tuner.report().universe_count,
            static_cast<std::size_t>(lazy.valid_count()));
}

}  // namespace
}  // namespace cstuner
