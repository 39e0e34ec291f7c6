#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "gpusim/simulator.hpp"
#include "stencil/stencils.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/dataset.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::tuner {
namespace {

using namespace space;

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : spec_(stencil::make_stencil("j3d7pt")),
        space_(spec_),
        sim_(gpusim::a100()),
        evaluator_(sim_, space_, {}, 5) {}

  Setting valid_setting() {
    Setting s;
    s.set(kTBx, 32);
    s.set(kTBy, 4);
    return s;
  }

  stencil::StencilSpec spec_;
  SearchSpace space_;
  gpusim::Simulator sim_;
  Evaluator evaluator_;
};

TEST_F(EvaluatorTest, EvaluationChargesVirtualClock) {
  EXPECT_DOUBLE_EQ(evaluator_.virtual_time_s(), 0.0);
  const double t = evaluator_.evaluate(valid_setting());
  EXPECT_GT(t, 0.0);
  // compile 0.25s + 3 runs x (time + launch overhead)
  const double expected =
      0.25 + 3.0 * (t / 1e3 + 2e-3);
  EXPECT_NEAR(evaluator_.virtual_time_s(), expected, 1e-9);
  EXPECT_EQ(evaluator_.unique_evaluations(), 1u);
}

TEST_F(EvaluatorTest, CacheHitsAreFree) {
  const auto s = valid_setting();
  const double t1 = evaluator_.evaluate(s);
  const double clock = evaluator_.virtual_time_s();
  const double t2 = evaluator_.evaluate(s);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_DOUBLE_EQ(evaluator_.virtual_time_s(), clock);
  EXPECT_EQ(evaluator_.unique_evaluations(), 1u);
}

TEST_F(EvaluatorTest, InvalidSettingIsInfiniteAndUncharged) {
  Setting bad = valid_setting();
  bad.set(kSD, 2);  // streaming fields without streaming
  EXPECT_TRUE(std::isinf(evaluator_.evaluate(bad)));
  EXPECT_DOUBLE_EQ(evaluator_.virtual_time_s(), 0.0);
  EXPECT_EQ(evaluator_.unique_evaluations(), 0u);
  // The single-setting entry point is a one-setting batch.
  const EvalResult one = evaluator_.evaluate_result(bad);
  const EvalResult batched = evaluator_.evaluate_batch({&bad, 1}).front();
  EXPECT_EQ(one.status, EvalStatus::kInvalid);
  EXPECT_EQ(batched.status, one.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.time_ms),
            std::bit_cast<std::uint64_t>(one.time_ms));
  EXPECT_EQ(batched.attempts, one.attempts);
  EXPECT_DOUBLE_EQ(evaluator_.virtual_time_s(), 0.0);

  // The Evaluator is the only validity gate, so tuners hand it invalid
  // candidates unfiltered. Interleaving them into batches must leave every
  // observable exactly as the batches without them would: clock, unique
  // evaluations, fault statistics, quarantine, trace and journal.
  Rng rng(17);
  std::vector<Setting> valid;
  for (int i = 0; i < 48; ++i) valid.push_back(space_.random_valid(rng));
  std::vector<Setting> mixed;
  for (const Setting& s : valid) {
    mixed.push_back(s);
    Setting raw = space_.random_setting(rng);
    while (space_.is_valid(raw)) raw = space_.random_setting(rng);
    mixed.push_back(raw);
    if (mixed.size() % 5 == 0) mixed.push_back(bad);
  }
  struct Observed {
    std::uint64_t clock_bits = 0;
    std::size_t unique = 0;
    std::string state;  // fault stats, quarantine, counters, best bits
    std::uint64_t overhead_bits = 0;
    std::vector<std::uint64_t> quarantined;
    std::vector<std::tuple<std::size_t, std::size_t, std::uint64_t,
                           std::uint64_t>>
        points;
    std::vector<std::tuple<std::uint64_t, EvalStatus, std::uint8_t>> events;
    std::string journal;
    std::vector<double> valid_times;
  };
  const auto run = [&](const std::vector<Setting>& batch, double fault_rate,
                       const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Observed out;
    {
      Checkpoint checkpoint(dir);
      Evaluator evaluator(sim_, space_, {}, 5);
      if (fault_rate > 0.0) {
        evaluator.set_fault_injection(
            gpusim::FaultConfig::uniform(fault_rate, 5), spec_.name);
      }
      evaluator.set_checkpoint(&checkpoint);
      // Repeat the batch so transient failures reach the quarantine.
      for (int round = 0; round < 4; ++round) {
        const auto results = evaluator.evaluate_batch(batch);
        out.valid_times.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (space_.is_valid(batch[i])) {
            out.valid_times.push_back(results[i].time_or_inf());
          } else {
            EXPECT_EQ(results[i].status, EvalStatus::kInvalid);
          }
        }
        evaluator.mark_iteration();
      }
      checkpoint.flush();
      out.clock_bits = std::bit_cast<std::uint64_t>(evaluator.virtual_time_s());
      out.unique = evaluator.unique_evaluations();
      out.state = evaluator.serialize_state();
      out.overhead_bits = std::bit_cast<std::uint64_t>(
          evaluator.fault_stats().fault_overhead_s);
      out.quarantined = evaluator.quarantined_keys();
      for (const auto& p : evaluator.trace().points) {
        out.points.emplace_back(p.iteration, p.evaluations,
                                std::bit_cast<std::uint64_t>(p.virtual_time_s),
                                std::bit_cast<std::uint64_t>(p.best_time_ms));
      }
      for (const auto& e : evaluator.trace().events) {
        out.events.emplace_back(e.setting_key, e.status, e.attempts);
      }
    }
    std::ifstream journal(dir + "/journal.jsonl", std::ios::binary);
    out.journal.assign(std::istreambuf_iterator<char>(journal), {});
    return out;
  };
  for (const double fault_rate : {0.0, 0.2}) {
    SCOPED_TRACE("fault rate " + std::to_string(fault_rate));
    const std::string root = ::testing::TempDir() + "cstuner_invalid_gate_";
    const Observed clean = run(valid, fault_rate, root + "valid");
    const Observed with_invalid = run(mixed, fault_rate, root + "mixed");
    EXPECT_GT(clean.unique, 0u);
    EXPECT_FALSE(clean.journal.empty());
    if (fault_rate > 0.0) {
      EXPECT_FALSE(clean.quarantined.empty());
    }
    EXPECT_EQ(with_invalid.clock_bits, clean.clock_bits);
    EXPECT_EQ(with_invalid.unique, clean.unique);
    EXPECT_EQ(with_invalid.state, clean.state);
    EXPECT_EQ(with_invalid.overhead_bits, clean.overhead_bits);
    EXPECT_EQ(with_invalid.quarantined, clean.quarantined);
    EXPECT_EQ(with_invalid.points, clean.points);
    EXPECT_EQ(with_invalid.events, clean.events);
    EXPECT_EQ(with_invalid.journal, clean.journal);
    EXPECT_EQ(with_invalid.valid_times, clean.valid_times);
  }
}

TEST_F(EvaluatorTest, BestTracksMinimum) {
  Rng rng(1);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 20; ++i) {
    best = std::min(best, evaluator_.evaluate(space_.random_valid(rng)));
  }
  EXPECT_DOUBLE_EQ(evaluator_.best_time_ms(), best);
  ASSERT_TRUE(evaluator_.best_setting().has_value());
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(*evaluator_.best_setting()), best);
}

TEST_F(EvaluatorTest, TraceRecordsImprovementsMonotonically) {
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    evaluator_.evaluate(space_.random_valid(rng));
    if (i % 5 == 4) evaluator_.mark_iteration();
  }
  const auto& trace = evaluator_.trace();
  ASSERT_FALSE(trace.points.empty());
  double last = std::numeric_limits<double>::infinity();
  double last_time = -1.0;
  for (const auto& p : trace.points) {
    EXPECT_LE(p.best_time_ms, last + 1e-12);
    EXPECT_GE(p.virtual_time_s, last_time);
    last = p.best_time_ms;
    last_time = p.virtual_time_s;
  }
}

TEST_F(EvaluatorTest, ResetClearsEverything) {
  evaluator_.evaluate(valid_setting());
  evaluator_.mark_iteration();
  evaluator_.reset();
  EXPECT_DOUBLE_EQ(evaluator_.virtual_time_s(), 0.0);
  EXPECT_EQ(evaluator_.unique_evaluations(), 0u);
  EXPECT_EQ(evaluator_.iterations(), 0u);
  EXPECT_FALSE(evaluator_.best_setting().has_value());
  EXPECT_TRUE(evaluator_.trace().points.empty());
}

TEST_F(EvaluatorTest, StopCriteriaByIterationAndTime) {
  StopCriteria by_iter;
  by_iter.max_iterations = 2;
  EXPECT_FALSE(by_iter.reached(evaluator_));
  evaluator_.mark_iteration();
  evaluator_.mark_iteration();
  EXPECT_TRUE(by_iter.reached(evaluator_));

  StopCriteria by_time;
  by_time.max_virtual_seconds = 0.1;
  evaluator_.evaluate(valid_setting());  // charges > 0.25 s
  EXPECT_TRUE(by_time.reached(evaluator_));
}

TEST(Trace, BestAtIterationAndTime) {
  ConvergenceTrace trace;
  trace.record(1, 10, 1.0, 5.0);
  trace.record(2, 20, 2.0, 3.0);
  trace.record(4, 40, 4.0, 2.0);
  EXPECT_TRUE(std::isinf(trace.best_at_iteration(0)));
  EXPECT_DOUBLE_EQ(trace.best_at_iteration(1), 5.0);
  EXPECT_DOUBLE_EQ(trace.best_at_iteration(3), 3.0);
  EXPECT_DOUBLE_EQ(trace.best_at_iteration(10), 2.0);
  EXPECT_DOUBLE_EQ(trace.best_at_time(2.5), 3.0);
  EXPECT_DOUBLE_EQ(trace.final_best(), 2.0);
}

TEST(Trace, TimeToReachFindsFirstCrossing) {
  ConvergenceTrace trace;
  trace.record(1, 10, 1.0, 5.0);
  trace.record(2, 20, 2.0, 3.0);
  trace.record(4, 40, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(trace.time_to_reach(5.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.time_to_reach(3.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.time_to_reach(2.5), 4.0);
  EXPECT_TRUE(std::isinf(trace.time_to_reach(1.0)));
  EXPECT_EQ(trace.iterations_to_reach(3.5), 2u);
  EXPECT_EQ(trace.iterations_to_reach(0.5), static_cast<std::size_t>(-1));
}

TEST(Trace, MeanFiniteSkipsInf) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(mean_finite({1.0, 3.0, inf}), 2.0);
  EXPECT_TRUE(std::isinf(mean_finite({inf, inf})));
}

TEST(Dataset, CollectProfilesDistinctValidSettings) {
  const auto spec = stencil::make_stencil("helmholtz");
  SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(3);
  const auto ds = collect_dataset(space, sim, 64, rng);
  EXPECT_GE(ds.size(), 60u);
  EXPECT_EQ(ds.times_ms.size(), ds.size());
  EXPECT_EQ(ds.metrics.rows(), ds.size());
  EXPECT_EQ(ds.metrics.cols(), gpusim::kMetricCount);
  for (double t : ds.times_ms) EXPECT_GT(t, 0.0);
}

TEST(Dataset, BestIndexIsMinimum) {
  const auto spec = stencil::make_stencil("j3d7pt");
  SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(4);
  const auto ds = collect_dataset(space, sim, 32, rng);
  const auto best = ds.best_index();
  for (double t : ds.times_ms) EXPECT_LE(ds.times_ms[best], t);
}

TEST(Dataset, FeatureMatrixMatchesSettings) {
  const auto spec = stencil::make_stencil("j3d7pt");
  SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(5);
  const auto ds = collect_dataset(space, sim, 16, rng);
  const auto x = ds.feature_matrix();
  EXPECT_EQ(x.rows(), ds.size());
  EXPECT_EQ(x.cols(), kParamCount);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_DOUBLE_EQ(x(r, kTBx),
                     static_cast<double>(ds.settings[r].get(kTBx)));
  }
}

TEST(Dataset, MetricColumnRoundTrip) {
  const auto spec = stencil::make_stencil("j3d7pt");
  SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(6);
  const auto ds = collect_dataset(space, sim, 8, rng);
  const auto col = ds.metric_column(gpusim::kL2HitRate);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_DOUBLE_EQ(col[r], ds.metrics(r, gpusim::kL2HitRate));
  }
}

TEST(Dataset, ProfileSettingsRejectsInvalid) {
  const auto spec = stencil::make_stencil("j3d7pt");
  SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Setting bad;
  bad.set(kSD, 2);
  EXPECT_THROW(profile_settings(space, sim, {bad}), Error);
}

}  // namespace
}  // namespace cstuner::tuner
