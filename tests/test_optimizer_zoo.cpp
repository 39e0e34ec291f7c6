// The optimizer zoo's contract tests (docs/optimizers.md):
//   - every registered optimizer is bit-identical across 0/4/8 workers,
//   - virtual budgets are respected at step boundaries,
//   - the ported searchers reproduce their pre-refactor originals on fixed
//     seeds, with and without injected faults (the regression pins; the
//     originals in src/baselines are kept only as their reference),
//   - resume is bit-identical for every optimizer by journal replay, both
//     through the driver and through make_tuner with a checkpoint snapshot,
//     and a checkpoint refuses to resume under a different optimizer,
//   - the tournament leaderboard JSON is byte-stable and ranks the whole
//     roster, and the MetaTuner always picks a registered optimizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baselines/artemis.hpp"
#include "baselines/garvey.hpp"
#include "baselines/opentuner.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/simulator.hpp"
#include "search/meta_tuner.hpp"
#include "search/optimizer.hpp"
#include "search/registry.hpp"
#include "search/tournament.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::search {
namespace {

namespace fs = std::filesystem;

/// The roster, split into the ported searchers and the ones written
/// directly against the interface (Registry.RosterCoversPortsAndNatives
/// keeps the two lists equal to the registry).
constexpr const char* kPorts[] = {"island-ga", "opentuner-ga", "opentuner-de",
                                  "hill",      "garvey",       "artemis"};
constexpr const char* kNatives[] = {"anneal",    "pso",    "de",
                                    "surrogate", "random", "spread"};

/// Test-name suffix for an optimizer-name parameter ('-' is not allowed).
constexpr auto kParamName = [](const auto& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstuner_zoo_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Everything a run must reproduce bit-for-bit. Doubles are compared as
/// IEEE-754 bit patterns: "deterministic" here means identical arithmetic,
/// not merely close results.
struct Outcome {
  std::uint64_t best_bits = 0;
  std::uint64_t virtual_bits = 0;
  std::size_t evals = 0;
  std::size_t iterations = 0;
  std::string best_setting;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const tuner::Evaluator& evaluator) {
  Outcome out;
  out.best_bits = std::bit_cast<std::uint64_t>(evaluator.best_time_ms());
  out.virtual_bits = std::bit_cast<std::uint64_t>(evaluator.virtual_time_s());
  out.evals = evaluator.unique_evaluations();
  out.iterations = evaluator.iterations();
  if (evaluator.best_setting().has_value()) {
    out.best_setting = evaluator.best_setting()->to_string();
  }
  return out;
}

class ZooFixture : public ::testing::Test {
 protected:
  ZooFixture()
      : spec_(stencil::make_stencil("j3d7pt")),
        space_(spec_),
        sim_(gpusim::a100()) {}

  /// Drives a registry optimizer to the stop criteria; `workers` sizes the
  /// evaluator's batch pool (0 = inline).
  Outcome run_zoo(const std::string& name, std::uint64_t seed,
                  const tuner::StopCriteria& stop, std::size_t workers = 0,
                  double fault_rate = 0.0) {
    ThreadPool pool(workers);
    tuner::Evaluator evaluator(sim_, space_, {}, seed, &pool);
    arm_faults(evaluator, seed, fault_rate);
    const auto optimizer = optimizer_registry().make(name, {.seed = seed});
    run_optimizer(*optimizer, evaluator, stop);
    return outcome_of(evaluator);
  }

  /// Drives a pre-refactor tuner::Tuner (the pin's ground truth).
  Outcome run_original(tuner::Tuner& tuner, std::uint64_t seed,
                       const tuner::StopCriteria& stop,
                       double fault_rate = 0.0) {
    tuner::Evaluator evaluator(sim_, space_, {}, seed);
    arm_faults(evaluator, seed, fault_rate);
    tuner.tune(evaluator, stop);
    return outcome_of(evaluator);
  }

  /// Arms the uniform fault storm the bench harness and serve use.
  void arm_faults(tuner::Evaluator& evaluator, std::uint64_t seed,
                  double fault_rate) const {
    if (fault_rate > 0.0) {
      evaluator.set_fault_injection(
          gpusim::FaultConfig::uniform(fault_rate, seed), spec_.name);
    }
  }

  /// Pins a port against its original with and without a fault storm.
  /// `exact` also compares the winning setting (the serial ports).
  void expect_pin(const std::string& name, tuner::Tuner& original,
                  bool exact) {
    const tuner::StopCriteria stop{.max_virtual_seconds = 8.0};
    for (const double fault_rate : kPinFaultRates) {
      SCOPED_TRACE("fault rate " + std::to_string(fault_rate));
      const Outcome expected = run_original(original, 99, stop, fault_rate);
      const Outcome ported = run_zoo(name, 99, stop, 0, fault_rate);
      if (exact) {
        EXPECT_EQ(ported, expected);
        continue;
      }
      EXPECT_EQ(ported.best_bits, expected.best_bits);
      EXPECT_EQ(ported.virtual_bits, expected.virtual_bits);
      EXPECT_EQ(ported.evals, expected.evals);
      EXPECT_EQ(ported.iterations, expected.iterations);
    }
  }

  static constexpr double kPinFaultRates[] = {0.0, 0.2};

  /// Interrupts a run after `interrupt_iterations` journaled iterations,
  /// then resumes a fresh instance against the replayed journal — the
  /// resume contract of every optimizer (docs/fault-tolerance.md).
  Outcome run_journal_resumed(const std::string& name, std::uint64_t seed,
                              const tuner::StopCriteria& stop,
                              std::size_t interrupt_iterations) {
    const std::string dir = fresh_dir(name);
    {
      tuner::Checkpoint checkpoint(dir);
      tuner::Evaluator evaluator(sim_, space_, {}, seed);
      evaluator.set_checkpoint(&checkpoint);
      const auto optimizer = optimizer_registry().make(name, {.seed = seed});
      run_optimizer(*optimizer, evaluator,
                    {.max_iterations = interrupt_iterations});
      checkpoint.flush();
    }
    tuner::Checkpoint checkpoint(dir);
    checkpoint.load();
    tuner::Evaluator evaluator(sim_, space_, {}, seed);
    evaluator.set_checkpoint(&checkpoint);
    const auto optimizer = optimizer_registry().make(name, {.seed = seed});
    run_optimizer(*optimizer, evaluator, stop);
    return outcome_of(evaluator);
  }

  /// Tunes `name` through make_tuner to `budget_s` virtual seconds. With a
  /// checkpoint directory the run journals there and ends like
  /// `cstuner tune --checkpoint`: flush plus a closing snapshot. With
  /// `resume` the directory is loaded first, like `--resume`.
  Outcome run_tune(const std::string& name, std::uint64_t seed,
                   double budget_s, double fault_rate,
                   const std::string& dir = "", bool resume = false) {
    std::optional<tuner::Checkpoint> checkpoint;
    tuner::Evaluator evaluator(sim_, space_, {}, seed);
    arm_faults(evaluator, seed, fault_rate);
    if (!dir.empty()) {
      checkpoint.emplace(dir);
      if (resume) checkpoint->load();
      evaluator.set_checkpoint(&*checkpoint);
    }
    core::CsTunerOptions options;
    options.seed = seed;
    make_tuner(name, options)->tune(evaluator,
                                    {.max_virtual_seconds = budget_s});
    if (checkpoint.has_value()) {
      checkpoint->flush();
      checkpoint->write_snapshot(evaluator.serialize_state());
    }
    return outcome_of(evaluator);
  }

  stencil::StencilSpec spec_;
  space::SearchSpace space_;
  gpusim::Simulator sim_;
};

// --- Registry -------------------------------------------------------------

TEST(Registry, RosterCoversPortsAndNatives) {
  std::set<std::string> expected(std::begin(kPorts), std::end(kPorts));
  expected.insert(std::begin(kNatives), std::end(kNatives));
  const auto names = optimizer_registry().names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
}

TEST(Registry, UnknownNameListsEveryAvailableOptimizer) {
  try {
    optimizer_registry().make("nosuch");
    FAIL() << "make() accepted an unknown optimizer";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nosuch"), std::string::npos);
    EXPECT_NE(what.find("available:"), std::string::npos);
    for (const auto& name : optimizer_registry().names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(Registry, MakeTunerResolvesEveryMethodName) {
  const core::CsTunerOptions options;
  EXPECT_NE(dynamic_cast<core::CsTuner*>(make_tuner("csTuner", options).get()),
            nullptr);
  EXPECT_EQ(make_tuner("opentuner", options)->name(), "opentuner-ga");
  for (const auto& name : optimizer_registry().names()) {
    const auto tuner = make_tuner(name, options);
    ASSERT_NE(dynamic_cast<OptimizerTuner*>(tuner.get()), nullptr) << name;
    EXPECT_EQ(tuner->name(), name);
  }
  try {
    make_tuner("nosuch", options);
    FAIL() << "make_tuner() accepted an unknown method";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    for (const char* name : {"nosuch", "csTuner", "opentuner", "anneal"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

// --- Worker-count determinism --------------------------------------------

TEST_F(ZooFixture, EveryOptimizerIsBitIdenticalAcrossWorkerCounts) {
  const tuner::StopCriteria stop{.max_virtual_seconds = 3.0};
  for (const auto& name : optimizer_registry().names()) {
    SCOPED_TRACE(name);
    const Outcome inline_run = run_zoo(name, 77, stop, 0);
    EXPECT_EQ(run_zoo(name, 77, stop, 4), inline_run);
    EXPECT_EQ(run_zoo(name, 77, stop, 8), inline_run);
  }
}

// --- Budget ---------------------------------------------------------------

TEST_F(ZooFixture, VirtualBudgetStopsEveryOptimizerAtAStepBoundary) {
  const double budget = 4.0;
  for (const auto& name : optimizer_registry().names()) {
    SCOPED_TRACE(name);
    ThreadPool pool(0);
    tuner::Evaluator evaluator(sim_, space_, {}, 5, &pool);
    const auto optimizer = optimizer_registry().make(name, {.seed = 5});
    const DriveResult r = run_optimizer(*optimizer, evaluator,
                                        {.max_virtual_seconds = budget});
    // The driver stops at the first boundary the optimizer allows at or
    // past the budget — or when the optimizer runs dry.
    EXPECT_TRUE(r.exhausted || evaluator.virtual_time_s() >= budget)
        << evaluator.virtual_time_s();
    EXPECT_GT(evaluator.unique_evaluations(), 0u);
  }
}

TEST_F(ZooFixture, ZeroBudgetMeansZeroEvaluationsForNativeOptimizers) {
  // The natives allow a stop check before their first proposal; a zero
  // budget is already expired, so nothing may be measured.
  for (const char* name : kNatives) {
    SCOPED_TRACE(name);
    const Outcome run = run_zoo(name, 5, {.max_virtual_seconds = 0.0});
    EXPECT_EQ(run.evals, 0u);
  }
}

// --- Regression pins against the pre-refactor searchers -------------------
//
// The GA ports evaluate each generation as ONE merged batch where the
// originals issued one batch per island concurrently. Results are pure per
// setting and clock charges commute, so best time / virtual time / eval
// counts are bit-identical — but a fitness tie can resolve to a different
// (equally fast) winner, so the pins do not compare the winning setting.
// The serial ports replay the exact original loop and pin the setting too.
// Every pin runs clean and under a 20% fault storm: serve and the bench
// harness drive the ports with faults armed.

TEST_F(ZooFixture, OpenTunerGaPortMatchesOriginal) {
  baselines::OpenTuner original({.seed = 99});
  expect_pin("opentuner-ga", original, false);
}

TEST_F(ZooFixture, IslandGaPortMatchesFourIslandOriginal) {
  baselines::OpenTunerOptions options;
  options.seed = 99;
  options.ga.sub_populations = 4;  // the zoo's island-ga archipelago
  baselines::OpenTuner original(options);
  expect_pin("island-ga", original, false);
}

TEST_F(ZooFixture, HillClimberPortMatchesOriginalExactly) {
  baselines::OpenTuner original(
      {.technique = baselines::OpenTunerTechnique::kHillClimber, .seed = 99});
  expect_pin("hill", original, true);
}

TEST_F(ZooFixture, DifferentialEvolutionPortMatchesOriginalExactly) {
  baselines::OpenTuner original(
      {.technique = baselines::OpenTunerTechnique::kDifferentialEvolution,
       .seed = 99});
  expect_pin("opentuner-de", original, true);
}

TEST_F(ZooFixture, GarveyPortMatchesOriginalExactly) {
  baselines::GarveyOptions options;
  options.seed = 99;
  baselines::Garvey original(options);
  expect_pin("garvey", original, true);
}

TEST_F(ZooFixture, ArtemisPortMatchesOriginalExactly) {
  baselines::ArtemisOptions options;
  options.seed = 99;
  baselines::Artemis original(options);
  expect_pin("artemis", original, true);
}

// --- Resume: journal replay ----------------------------------------------
//
// Every optimizer resumes the same way: a fresh instance re-driven against a
// journal-loaded evaluator.

class JournalResumeTest : public ZooFixture,
                          public ::testing::WithParamInterface<const char*> {};

TEST_P(JournalResumeTest, ResumesBitIdenticallyFromMidRunJournal) {
  const std::string name = GetParam();
  const tuner::StopCriteria stop{.max_virtual_seconds = 20.0};
  const Outcome uninterrupted = run_zoo(name, 55, stop);
  EXPECT_EQ(run_journal_resumed(name, 55, stop, 2), uninterrupted);
}

INSTANTIATE_TEST_SUITE_P(Ports, JournalResumeTest, ::testing::ValuesIn(kPorts),
                         kParamName);
INSTANTIATE_TEST_SUITE_P(Natives, JournalResumeTest,
                         ::testing::ValuesIn(kNatives), kParamName);

// The CLI's resume path: make_tuner with a checkpoint attached, a closing
// snapshot, then load() and a fresh evaluator tuned to a longer budget.

class TuneResumeTest : public ZooFixture,
                       public ::testing::WithParamInterface<std::string> {};

TEST_P(TuneResumeTest, ResumedTuneMatchesUninterrupted) {
  const std::string name = GetParam();
  for (const double fault_rate : kPinFaultRates) {
    SCOPED_TRACE("fault rate " + std::to_string(fault_rate));
    const Outcome uninterrupted = run_tune(name, 7, 20.0, fault_rate);
    const std::string dir = fresh_dir("tune_resume_" + name);
    run_tune(name, 7, 5.0, fault_rate, dir);
    EXPECT_EQ(run_tune(name, 7, 20.0, fault_rate, dir, /*resume=*/true),
              uninterrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, TuneResumeTest,
                         ::testing::ValuesIn(optimizer_registry().names()),
                         kParamName);

TEST_F(ZooFixture, ResumeByADifferentOptimizerIsRefused) {
  const std::string dir = fresh_dir("resume_other");
  run_tune("anneal", 7, 2.0, 0.0, dir);
  try {
    run_tune("pso", 7, 5.0, 0.0, dir, /*resume=*/true);
    FAIL() << "an anneal checkpoint resumed under pso";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'anneal'"), std::string::npos) << what;
    EXPECT_NE(what.find("'pso'"), std::string::npos) << what;
  }
  // The alias resolves to the optimizer that wrote the checkpoint.
  const std::string ga_dir = fresh_dir("resume_alias");
  run_tune("opentuner-ga", 7, 2.0, 0.0, ga_dir);
  EXPECT_NO_THROW(run_tune("opentuner", 7, 5.0, 0.0, ga_dir, true));

  // csTuner names its checkpoints too, so the refusal covers both
  // directions between csTuner and the zoo.
  const std::string cs_dir = fresh_dir("resume_cstuner");
  {
    tuner::Checkpoint checkpoint(cs_dir);
    tuner::Evaluator evaluator(sim_, space_, {}, 7);
    evaluator.set_checkpoint(&checkpoint);
    core::CsTunerOptions options;
    options.dataset_size = 32;
    options.universe_size = 500;
    options.seed = 7;
    core::CsTuner cs(options);
    cs.tune(evaluator, {.max_virtual_seconds = 2.0});
    checkpoint.flush();
    checkpoint.write_snapshot(evaluator.serialize_state());
  }
  {
    tuner::Checkpoint written(cs_dir);
    written.load();
    EXPECT_EQ(written.loaded_optimizer_name(), "csTuner");
  }
  try {
    run_tune("anneal", 7, 5.0, 0.0, cs_dir, /*resume=*/true);
    FAIL() << "a csTuner checkpoint resumed under anneal";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'csTuner'"), std::string::npos) << what;
    EXPECT_NE(what.find("'anneal'"), std::string::npos) << what;
  }
  try {
    run_tune("csTuner", 7, 5.0, 0.0, dir, /*resume=*/true);
    FAIL() << "an anneal checkpoint resumed under csTuner";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'anneal'"), std::string::npos) << what;
    EXPECT_NE(what.find("'csTuner'"), std::string::npos) << what;
  }
}

// --- Driver ---------------------------------------------------------------

/// An optimizer that proposes nothing: the driver must report exhaustion
/// and still call finish().
class EmptyOptimizer : public Optimizer {
 public:
  std::string name() const override { return "empty"; }
  void bind(tuner::Evaluator&) override {}
  std::vector<space::Setting> propose() override { return {}; }
  void observe(const std::vector<space::Setting>&,
               const std::vector<tuner::EvalResult>&) override {}
  void finish(tuner::Evaluator&) override { finished = true; }
  bool finished = false;
};

TEST_F(ZooFixture, DriverReportsExhaustionAndFinishes) {
  tuner::Evaluator evaluator(sim_, space_, {}, 5);
  EmptyOptimizer optimizer;
  const DriveResult r =
      run_optimizer(optimizer, evaluator, {.max_virtual_seconds = 10.0});
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_TRUE(optimizer.finished);
}

/// An optimizer stuck on one setting: after the first step every batch is
/// a cache hit, which charges no virtual time.
class StuckOptimizer : public Optimizer {
 public:
  std::string name() const override { return "stuck"; }
  void bind(tuner::Evaluator& evaluator) override {
    Rng rng(3);
    setting_ = evaluator.space().random_valid(rng);
  }
  std::vector<space::Setting> propose() override { return {setting_}; }
  void observe(const std::vector<space::Setting>&,
               const std::vector<tuner::EvalResult>&) override {}
  space::Setting setting_;
};

TEST_F(ZooFixture, DriverEndsAStalledRunAsExhausted) {
  tuner::Evaluator evaluator(sim_, space_, {}, 5);
  StuckOptimizer optimizer;
  const DriveResult r =
      run_optimizer(optimizer, evaluator, {.max_virtual_seconds = 10.0});
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.steps, kMaxStallSteps + 1);
  EXPECT_EQ(evaluator.unique_evaluations(), 1u);
}

// --- Tournament -----------------------------------------------------------

TEST(Tournament, LeaderboardJsonIsByteStable) {
  TournamentOptions options;
  options.stencils = {"j3d7pt"};
  options.optimizers = {"random", "anneal", "pso"};
  options.budget_s = 3.0;
  auto first = run_tournament(options);
  auto second = run_tournament(options);
  // Wall clocks are the only nondeterministic readings; everything gated
  // must serialize to the same bytes.
  first.wall_s = 0.0;
  second.wall_s = 0.0;
  EXPECT_EQ(tournament_json(first), tournament_json(second));
}

TEST(Tournament, RanksEveryRegisteredOptimizer) {
  TournamentOptions options;
  options.stencils = {"j3d7pt"};
  options.budget_s = 2.0;
  const auto result = run_tournament(options);
  const auto names = optimizer_registry().names();
  ASSERT_EQ(result.cells.size(), names.size());
  std::set<std::string> ranked;
  std::set<std::size_t> ranks;
  for (const auto& cell : result.cells) {
    ranked.insert(cell.optimizer);
    ranks.insert(cell.rank);
    EXPECT_TRUE(std::isfinite(cell.best_ms)) << cell.optimizer;
  }
  EXPECT_EQ(ranked.size(), names.size());
  // Ranks are a permutation of 1..N within the single stencil.
  EXPECT_EQ(*ranks.begin(), 1u);
  EXPECT_EQ(*ranks.rbegin(), names.size());
}

TEST(Tournament, UnknownOptimizerIsRejectedUpFront) {
  TournamentOptions options;
  options.stencils = {"j3d7pt"};
  options.optimizers = {"nosuch"};
  EXPECT_THROW(run_tournament(options), UsageError);
}

// --- MetaTuner ------------------------------------------------------------

TEST(MetaTuner, AlwaysPicksARegisteredOptimizerDeterministically) {
  const MetaTuner first;
  const MetaTuner second;
  for (const auto& name : stencil::stencil_names()) {
    SCOPED_TRACE(name);
    const auto spec = stencil::make_stencil(name);
    const std::string pick = first.pick(spec);
    EXPECT_TRUE(optimizer_registry().contains(pick)) << pick;
    EXPECT_EQ(second.pick(spec), pick);
  }
}

TEST(MetaTuner, FeaturesSeparateStencilClasses) {
  const auto star = MetaTuner::features_of(stencil::make_stencil("j3d7pt"));
  const auto box = MetaTuner::features_of(stencil::make_stencil("j3d27pt"));
  ASSERT_EQ(star.size(), box.size());
  EXPECT_NE(star, box);
}

}  // namespace
}  // namespace cstuner::search
