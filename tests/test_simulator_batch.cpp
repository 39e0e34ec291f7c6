#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/fault_model.hpp"
#include "gpusim/gpu_arch.hpp"
#include "gpusim/model_kernels.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/simulator.hpp"
#include "io/fault_vfs.hpp"
#include "space/search_space.hpp"
#include "space/setting.hpp"
#include "stencil/stencils.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Valid settings of a sampled universe (the batch oracle's input domain).
std::vector<space::Setting> valid_universe(const space::SearchSpace& space,
                                           std::size_t n,
                                           std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<space::Setting> out;
  for (const auto& s : space.sample_universe(rng, n)) {
    if (space.is_valid(s)) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Simulator batch oracle: bit-identity against the scalar entry points.
// ---------------------------------------------------------------------------

class SimulatorBatchIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SimulatorBatchIdentity, ProfileTimesBothOverloadsMatchScalarProfile) {
  const auto& [stencil_name, arch_name] = GetParam();
  const stencil::StencilSpec spec = stencil::make_stencil(stencil_name);
  space::SearchSpace space(spec);
  Rng rng(42);
  std::vector<space::Setting> universe;
  std::vector<space::ResourceUsage> usages;
  for (const auto& s : space.sample_universe(rng, 400)) {
    if (space::ResourceUsage u; space.is_valid(s, &u)) {
      universe.push_back(s);
      usages.push_back(u);
    }
  }
  ASSERT_FALSE(universe.empty());
  gpusim::Simulator sim(gpusim::arch_by_name(arch_name));
  const auto& inv = sim.invariants(spec);

  std::vector<double> times(universe.size());
  std::vector<double> times_with_usages(universe.size());
  sim.profile_times(inv, universe, times);
  sim.profile_times(inv, universe, usages, times_with_usages);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const double scalar_ms = sim.profile(spec, universe[i]).time_ms;
    ASSERT_EQ(bits(scalar_ms), bits(times[i])) << i;
    ASSERT_EQ(bits(scalar_ms), bits(times_with_usages[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StencilsAndArchs, SimulatorBatchIdentity,
    ::testing::Combine(::testing::Values("j3d7pt", "helmholtz"),
                       ::testing::Values("a100", "v100")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(SimulatorBatch, NoisyTimeEntryPointsAgreeWithMeasureMs) {
  const stencil::StencilSpec spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  const auto universe = valid_universe(space, 64);
  gpusim::Simulator sim(gpusim::a100());
  const auto& inv = sim.invariants(spec);
  for (const auto& setting : universe) {
    const double noise_free = sim.profile(spec, setting).time_ms;
    const std::uint64_t premixed =
        hash_combine(inv.noise_seed_prefix, setting.hash());
    for (std::uint64_t run = 0; run < 4; ++run) {
      const double scalar = sim.measure_ms(spec, setting, run);
      ASSERT_EQ(bits(scalar),
                bits(sim.noisy_time_ms(inv, setting.hash(), noise_free, run)));
      ASSERT_EQ(bits(scalar),
                bits(gpusim::Simulator::noisy_time_from(premixed, noise_free,
                                                        run)));
    }
  }
}

TEST(SimulatorBatch, MemoOccupancyMatchesComputeOccupancy) {
  // Interleave two archs over one universe so memo entries are repeatedly
  // evicted and re-filled; every call must still equal the direct model.
  const stencil::StencilSpec spec = stencil::make_stencil("helmholtz");
  space::SearchSpace space(spec);
  Rng rng(7);
  std::vector<space::Setting> universe;
  std::vector<space::ResourceUsage> usages;
  for (const auto& s : space.sample_universe(rng, 500)) {
    if (space::ResourceUsage u; space.is_valid(s, &u)) {
      universe.push_back(s);
      usages.push_back(u);
    }
  }
  ASSERT_FALSE(universe.empty());
  for (const auto* arch : {&gpusim::a100(), &gpusim::v100()}) {
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const auto geom = codegen::compute_launch_geometry(spec, universe[i]);
      const auto direct = gpusim::compute_occupancy(
          *arch, geom.threads_per_block(), usages[i].registers_per_thread,
          usages[i].shared_mem_per_block);
      const auto memo = gpusim::detail::memo_occupancy(
          *arch, geom.threads_per_block(), usages[i].registers_per_thread,
          usages[i].shared_mem_per_block);
      ASSERT_EQ(direct.blocks_per_sm, memo.blocks_per_sm) << i;
      ASSERT_EQ(bits(direct.occupancy), bits(memo.occupancy)) << i;
      ASSERT_EQ(direct.limiter, memo.limiter) << i;
    }
  }
}

TEST(SimulatorBatch, RngNormalLazySecondDrawMatchesBoxMuller) {
  // Regression for the lazy-sin change: consecutive normal() draws must
  // still be the cos/sin halves of one Box-Muller transform.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng reference(seed);
    double u1 = reference.uniform();
    while (u1 <= 1e-300) u1 = reference.uniform();
    const double u2 = reference.uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;

    Rng rng(seed);
    EXPECT_EQ(bits(r * std::cos(theta)), bits(rng.normal()));
    EXPECT_EQ(bits(r * std::sin(theta)), bits(rng.normal()));
    // Third draw starts a fresh transform from the advanced stream.
    double v1 = reference.uniform();
    while (v1 <= 1e-300) v1 = reference.uniform();
    const double v2 = reference.uniform();
    EXPECT_EQ(bits(std::sqrt(-2.0 * std::log(v1)) *
                   std::cos(2.0 * M_PI * v2)),
              bits(rng.normal()));
  }
}

TEST(SimulatorBatch, SettingHashCacheInvalidatesOnMutation) {
  space::Setting s;
  s.set(space::kTBx, 32);
  const std::uint64_t h1 = s.hash();
  EXPECT_EQ(h1, s.hash());  // memoized, stable
  s.set(space::kTBy, 4);
  const std::uint64_t h2 = s.hash();
  EXPECT_NE(h1, h2);
  space::Setting fresh;
  fresh.set(space::kTBx, 32);
  fresh.set(space::kTBy, 4);
  EXPECT_EQ(h2, fresh.hash());
  s[space::kTBy] = 8;  // mutable-reference path must also invalidate
  EXPECT_NE(h2, s.hash());
}

// ---------------------------------------------------------------------------
// Evaluator batch pipeline: worker-count independence and cache semantics.
// ---------------------------------------------------------------------------

struct BatchOutcome {
  std::vector<std::uint64_t> time_bits;
  std::vector<tuner::EvalStatus> statuses;
  std::uint64_t virtual_time_bits = 0;
  std::size_t unique_evals = 0;
  std::vector<std::uint64_t> quarantined;

  bool operator==(const BatchOutcome&) const = default;
};

BatchOutcome run_batch(const gpusim::Simulator& sim,
                       const space::SearchSpace& space,
                       const std::vector<space::Setting>& settings,
                       ThreadPool* pool, const gpusim::FaultConfig* faults) {
  tuner::Evaluator eval(sim, space, {}, 1, pool);
  if (faults != nullptr) eval.set_fault_injection(*faults, "test");
  const auto results = eval.evaluate_batch(settings);
  BatchOutcome out;
  out.time_bits.reserve(results.size());
  for (const auto& r : results) {
    out.time_bits.push_back(bits(r.time_ms));
    out.statuses.push_back(r.status);
  }
  out.virtual_time_bits = bits(eval.virtual_time_s());
  out.unique_evals = eval.unique_evaluations();
  out.quarantined = eval.quarantined_keys();
  return out;
}

TEST(EvaluatorBatch, BitIdenticalAcrossWorkerCountsCleanAndFaulted) {
  const stencil::StencilSpec spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(42);
  const auto universe = space.sample_universe(rng, 1200);
  gpusim::Simulator sim(gpusim::a100());
  const gpusim::FaultConfig storm = gpusim::FaultConfig::uniform(0.20);

  const BatchOutcome serial = run_batch(sim, space, universe, nullptr, nullptr);
  const BatchOutcome serial_faulted =
      run_batch(sim, space, universe, nullptr, &storm);
  EXPECT_FALSE(serial_faulted.quarantined.empty());
  for (const std::size_t workers : {std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(workers);
    EXPECT_EQ(serial, run_batch(sim, space, universe, &pool, nullptr))
        << workers << " workers, clean";
    EXPECT_EQ(serial_faulted, run_batch(sim, space, universe, &pool, &storm))
        << workers << " workers, 20% faults";
  }
}

TEST(EvaluatorBatch, BatchMatchesSerialEvaluateResultBitForBit) {
  // A fresh engine fed one setting at a time through the scalar entry point
  // must agree with the batch engine on every field, including the virtual
  // clock.
  const stencil::StencilSpec spec = stencil::make_stencil("helmholtz");
  space::SearchSpace space(spec);
  Rng rng(11);
  const auto universe = space.sample_universe(rng, 600);
  gpusim::Simulator sim(gpusim::a100());

  tuner::Evaluator scalar(sim, space, {}, 1, nullptr);
  std::vector<tuner::EvalResult> expected;
  expected.reserve(universe.size());
  for (const auto& s : universe) expected.push_back(scalar.evaluate_result(s));

  tuner::Evaluator batch(sim, space, {}, 1, nullptr);
  const auto results = batch.evaluate_batch(universe);
  ASSERT_EQ(expected.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(expected[i].status, results[i].status) << i;
    EXPECT_EQ(bits(expected[i].time_ms), bits(results[i].time_ms)) << i;
    EXPECT_EQ(expected[i].attempts, results[i].attempts) << i;
  }
  EXPECT_EQ(bits(scalar.virtual_time_s()), bits(batch.virtual_time_s()));
  EXPECT_EQ(scalar.unique_evaluations(), batch.unique_evaluations());
}

TEST(EvaluatorBatch, DuplicatesWithinOneBatchChargeTheClockOnce) {
  // Duplicate slots later in the batch must come back as cache hits with
  // the first slot's bits (the commit pre-pass converts losing duplicates),
  // and the clock must only be charged for unique settings.
  const stencil::StencilSpec spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(5);
  const auto base = space.sample_universe(rng, 300);
  std::vector<space::Setting> doubled = base;
  doubled.insert(doubled.end(), base.begin(), base.end());

  gpusim::Simulator sim(gpusim::a100());
  const BatchOutcome once = run_batch(sim, space, base, nullptr, nullptr);
  const BatchOutcome twice = run_batch(sim, space, doubled, nullptr, nullptr);
  ASSERT_EQ(twice.time_bits.size(), 2 * once.time_bits.size());
  for (std::size_t i = 0; i < once.time_bits.size(); ++i) {
    EXPECT_EQ(once.time_bits[i], twice.time_bits[i]) << i;
    EXPECT_EQ(once.time_bits[i], twice.time_bits[once.time_bits.size() + i])
        << i << " (duplicate slot)";
  }
  EXPECT_EQ(once.virtual_time_bits, twice.virtual_time_bits);
  EXPECT_EQ(once.unique_evals, twice.unique_evals);
}

TEST(EvaluatorBatch, QuarantinedSettingsStayQuarantinedInLaterBatches) {
  const stencil::StencilSpec spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(42);
  const auto universe = space.sample_universe(rng, 1000);
  gpusim::Simulator sim(gpusim::a100());

  tuner::Evaluator eval(sim, space, {}, 1, nullptr);
  eval.set_fault_injection(gpusim::FaultConfig::uniform(0.25), "test");
  const auto first = eval.evaluate_batch(universe);
  const auto quarantined = eval.quarantined_keys();
  ASSERT_FALSE(quarantined.empty());
  const auto second = eval.evaluate_batch(universe);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const std::uint64_t key = universe[i].hash();
    const bool in_quarantine =
        std::find(quarantined.begin(), quarantined.end(), key) !=
        quarantined.end();
    if (in_quarantine) {
      // Cacheable permanent failures (compile fail, crash) are served from
      // the result cache even when quarantined; everything else hits the
      // quarantine list.
      const bool cached_permanent =
          second[i].status == tuner::EvalStatus::kCompileFail ||
          second[i].status == tuner::EvalStatus::kCrash;
      if (cached_permanent) {
        EXPECT_EQ(first[i].status, second[i].status) << i;
      } else {
        EXPECT_EQ(tuner::EvalStatus::kQuarantined, second[i].status) << i;
      }
      EXPECT_TRUE(second[i].failed()) << i;
    } else {
      // Everything else is served from the result cache, bit for bit.
      EXPECT_EQ(first[i].status, second[i].status) << i;
      EXPECT_EQ(bits(first[i].time_ms), bits(second[i].time_ms)) << i;
    }
  }
}

/// What a run of several batches leaves behind that the Evaluator promises
/// does not depend on commit order.
struct ConcurrentOutcome {
  std::uint64_t virtual_time_bits = 0;
  std::size_t unique_evals = 0;
  std::string state;  ///< serialize_state(): fault stats and quarantine
  std::set<std::uint64_t> journaled;
  std::vector<std::vector<std::uint64_t>> slot_bits;
};

ConcurrentOutcome run_overlapping_batches(
    const gpusim::Simulator& sim, const space::SearchSpace& space,
    const std::vector<std::vector<space::Setting>>& batches, double fault_rate,
    bool concurrent) {
  io::FaultVfs vfs;
  ConcurrentOutcome out;
  {
    ThreadPool pool(2);
    tuner::Checkpoint checkpoint("ckpt", &vfs);
    tuner::Evaluator eval(sim, space, {}, 1, &pool);
    if (fault_rate > 0.0) {
      eval.set_fault_injection(gpusim::FaultConfig::uniform(fault_rate),
                               "test");
    }
    eval.set_checkpoint(&checkpoint);
    std::vector<std::vector<tuner::EvalResult>> results(batches.size());
    if (concurrent) {
      // Release every caller at once so their phases overlap.
      std::atomic<std::size_t> ready{0};
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < batches.size(); ++t) {
        threads.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < batches.size()) std::this_thread::yield();
          results[t] = eval.evaluate_batch(batches[t]);
        });
      }
      for (auto& thread : threads) thread.join();
    } else {
      for (std::size_t t = 0; t < batches.size(); ++t) {
        results[t] = eval.evaluate_batch(batches[t]);
      }
    }
    checkpoint.flush();
    out.virtual_time_bits = bits(eval.virtual_time_s());
    out.unique_evals = eval.unique_evaluations();
    out.state = eval.serialize_state();
    for (const auto& batch : results) {
      auto& slots = out.slot_bits.emplace_back();
      for (const auto& r : batch) slots.push_back(bits(r.time_ms));
    }
  }
  tuner::Checkpoint reread("ckpt", &vfs);
  reread.load();
  for (const auto& [key, entry] : reread.replay()) out.journaled.insert(key);
  return out;
}

TEST(EvaluatorBatch, ConcurrentOverlappingBatchesMatchSerial) {
  // The island GA's calling pattern: several threads drive one engine with
  // batches that share keys with each other and repeat keys within
  // themselves. The trace may interleave differently, but the clock, the
  // unique count, the fault statistics, the quarantine and the journal must
  // equal those of the same batches committed one after another.
  const stencil::StencilSpec spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(77);
  const auto pool_settings = space.sample_universe(rng, 120);
  ASSERT_EQ(pool_settings.size(), 120u);
  gpusim::Simulator sim(gpusim::a100());

  // Batch t takes 40 consecutive settings starting at 30t (wrapping), so
  // each batch shares 10 keys with each ring neighbour, then repeats 8 of
  // its own: 48 slots.
  std::vector<std::vector<space::Setting>> batches(4);
  for (std::size_t t = 0; t < batches.size(); ++t) {
    auto& batch = batches[t];
    for (std::size_t j = 0; j < 40; ++j) {
      batch.push_back(pool_settings[(30 * t + j) % pool_settings.size()]);
    }
    for (std::size_t j = 0; j < 8; ++j) batch.push_back(batch[5 * j]);
  }

  for (const double rate : {0.0, 0.2}) {
    const ConcurrentOutcome serial =
        run_overlapping_batches(sim, space, batches, rate, false);
    EXPECT_FALSE(serial.journaled.empty());
    if (rate > 0.0) {
      // The storm must exercise the quarantine, not just clean commits.
      EXPECT_EQ(serial.state.find("\"quarantine\":[]"), std::string::npos);
    }
    for (int round = 0; round < 5; ++round) {
      const ConcurrentOutcome concurrent =
          run_overlapping_batches(sim, space, batches, rate, true);
      EXPECT_EQ(serial.virtual_time_bits, concurrent.virtual_time_bits)
          << "rate " << rate << " round " << round;
      EXPECT_EQ(serial.unique_evals, concurrent.unique_evals)
          << "rate " << rate << " round " << round;
      EXPECT_EQ(serial.state, concurrent.state)
          << "rate " << rate << " round " << round;
      EXPECT_EQ(serial.journaled, concurrent.journaled)
          << "rate " << rate << " round " << round;
      if (rate == 0.0) {
        EXPECT_EQ(serial.slot_bits, concurrent.slot_bits)
            << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FlatHashMap unit tests.
// ---------------------------------------------------------------------------

TEST(FlatHashMap, InsertFindGrowAndForEach) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(nullptr, map.find(123));
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    const auto [value, inserted] = map.try_emplace(k, static_cast<int>(k));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(static_cast<int>(k), *value);
  }
  EXPECT_EQ(1000u, map.size());
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    const int* value = map.find(k);
    ASSERT_NE(nullptr, value) << k;
    EXPECT_EQ(static_cast<int>(k), *value);
  }
  EXPECT_EQ(nullptr, map.find(1001));
  std::uint64_t sum = 0;
  map.for_each([&](std::uint64_t k, int) { sum += k; });
  EXPECT_EQ(1000u * 1001u / 2u, sum);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(nullptr, map.find(1));
}

TEST(FlatHashMap, FirstWriterWins) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.try_emplace(7, 100).second);
  const auto [value, inserted] = map.try_emplace(7, 200);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(100, *value);  // losing writer sees the winner's value
  EXPECT_EQ(1u, map.size());
}

TEST(FlatHashMap, CollidingKeysProbeLinearlyAcrossWraparound) {
  // Keys congruent modulo the capacity all hash to the same slot; with the
  // highest congruence class the probe chain must wrap past the end of the
  // table and still find every entry.
  FlatHashMap<std::uint64_t> map;
  map.reserve(8);  // capacity 16 (power of two, 7/8 load)
  const std::uint64_t cap = map.capacity();
  ASSERT_EQ(16u, cap);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t j = 1; j <= 8; ++j) keys.push_back(cap - 1 + j * cap);
  for (const std::uint64_t k : keys) {
    EXPECT_TRUE(map.try_emplace(k, k * 3).second);
  }
  for (const std::uint64_t k : keys) {
    const std::uint64_t* value = map.find(k);
    ASSERT_NE(nullptr, value) << k;
    EXPECT_EQ(k * 3, *value);
  }
  // A same-slot key that was never inserted terminates the probe chain.
  EXPECT_EQ(nullptr, map.find(cap - 1 + 100 * cap));
}

TEST(FlatHashMap, ZeroKeyUsesSideSlot) {
  FlatHashMap<int> map;
  EXPECT_EQ(nullptr, map.find(0));
  EXPECT_TRUE(map.try_emplace(0, 41).second);
  EXPECT_FALSE(map.try_emplace(0, 99).second);
  ASSERT_NE(nullptr, map.find(0));
  EXPECT_EQ(41, *map.find(0));
  EXPECT_EQ(1u, map.size());
  bool saw_zero = false;
  map.for_each([&](std::uint64_t k, int v) {
    if (k == 0) {
      saw_zero = true;
      EXPECT_EQ(41, v);
    }
  });
  EXPECT_TRUE(saw_zero);
  map.clear();
  EXPECT_EQ(nullptr, map.find(0));
}

TEST(FlatHashMap, ReserveKeepsEntriesAndPreventsRehash) {
  FlatHashMap<int> map;
  for (std::uint64_t k = 1; k <= 10; ++k) map.try_emplace(k, static_cast<int>(k));
  map.reserve(4096);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 7 / 8, 4096u);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    ASSERT_NE(nullptr, map.find(k));
    EXPECT_EQ(static_cast<int>(k), *map.find(k));
  }
  for (std::uint64_t k = 11; k <= 4096; ++k) map.try_emplace(k, 0);
  EXPECT_EQ(cap, map.capacity());  // no growth below the reserved population
}

}  // namespace
}  // namespace cstuner
