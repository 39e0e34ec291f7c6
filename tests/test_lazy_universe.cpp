#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/propagate.hpp"
#include "analysis/space_lint.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/simulator.hpp"
#include "obs/obs.hpp"
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

TEST(LazyUniverse, MatchesBruteForceWhereResourceRulesCut) {
  // The reduced spaces under the default limits rarely hit rules 8, 8b and
  // 9, so the frontier's thresholds would go almost untested. Per-stencil
  // limits cut into the middle of each space's register and shared-memory
  // range instead, and the shared-memory limit is one that valid settings
  // reach exactly, so an off-by-one in the rule-9 threshold shows.
  struct Tight {
    const char* stencil;
    ResourceLimits limits;
  };
  const auto tight = [](int regs_per_thread, std::int64_t regs_per_block,
                        std::int64_t smem) {
    ResourceLimits limits;
    limits.max_registers_per_thread = regs_per_thread;
    limits.max_registers_per_block = regs_per_block;
    limits.max_smem_per_block = smem;
    return limits;
  };
  const Tight cases[] = {{"j3d7pt", tight(60, 1536, 2880)},
                         {"hypterm", tight(150, 4096, 30720)}};
  ResourceLimits loose;
  loose.max_registers_per_thread = 1 << 20;
  loose.max_registers_per_block = std::int64_t{1} << 40;
  loose.max_smem_per_block = std::int64_t{1} << 40;
  for (const Tight& c : cases) {
    SearchSpace space(reduced_spec(c.stencil), reduced_limits(), c.limits);
    // Settings that pass every rule but the resource ones, attributed to
    // the first resource rule the checker reports.
    SearchSpace unbounded(reduced_spec(c.stencil), reduced_limits(), loose);
    std::vector<Setting> expected;
    std::size_t spill = 0;
    std::size_t block_regs = 0;
    std::size_t smem = 0;
    bool smem_at_limit = false;
    for (const Setting& s : brute_force(unbounded)) {
      const auto why = space.checker().violation(s);
      if (!why.has_value()) {
        expected.push_back(s);
        smem_at_limit = smem_at_limit ||
                        estimate_resources(space.spec(), s, c.limits)
                                .shared_mem_per_block ==
                            c.limits.max_smem_per_block;
      } else if (why->starts_with("register spill")) {
        ++spill;
      } else if (why->starts_with("block needs")) {
        ++block_regs;
      } else if (why->starts_with("shared memory")) {
        ++smem;
      } else {
        ADD_FAILURE() << c.stencil << ": unexpected violation " << *why;
      }
    }
    EXPECT_GT(spill, 0u) << c.stencil << ": rule 8 never cuts";
    EXPECT_GT(block_regs, 0u) << c.stencil << ": rule 8b never cuts";
    EXPECT_GT(smem, 0u) << c.stencil << ": rule 9 never cuts";
    EXPECT_TRUE(smem_at_limit) << c.stencil;
    ASSERT_FALSE(expected.empty()) << c.stencil;

    LazyUniverse lazy(space);
    EXPECT_EQ(lazy.valid_count(), expected.size()) << c.stencil;
    const auto all = lazy.take_all();
    ASSERT_EQ(all.size(), expected.size()) << c.stencil;
    EXPECT_EQ(sorted_keys(all), sorted_keys(expected)) << c.stencil;
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

TEST(BlockCursor, SeekLandsOnEveryRankOfEveryBlock) {
  // Every block of two scaled stencils' reduced spaces (streaming and
  // non-streaming regions, shared memory on and off): seek(i) must land on
  // the i-th setting next() yields, and next() must continue from there.
  for (const char* name : {"j3d7pt", "hypterm"}) {
    SearchSpace space(reduced_spec(name), reduced_limits());
    const auto regions = build_regions(space);
    std::uint64_t blocks = 0;
    std::uint64_t ranks = 0;
    for (const EnumRegion& region : regions) {
      const auto values_of = [&](ParamId id) {
        const std::int64_t pin = region.pinned[static_cast<std::size_t>(id)];
        return pin != 0 ? std::vector<std::int64_t>{pin}
                        : space.parameter(id).values;
      };
      for (const std::int64_t x : values_of(kTBx)) {
        for (const std::int64_t y : values_of(kTBy)) {
          for (const std::int64_t z : values_of(kTBz)) {
            const std::array<std::int64_t, 3> tb{x, y, z};
            const std::uint64_t count = count_block(space, region, tb);
            std::vector<Setting> walked;
            BlockCursor walker(space, region, tb);
            Setting s;
            while (walker.next(s)) walked.push_back(s);
            ASSERT_EQ(walked.size(), count) << region.label();
            for (std::uint64_t i = 0; i < count; ++i) {
              BlockCursor cursor(space, region, tb);
              ASSERT_TRUE(cursor.seek(i, s)) << region.label() << " rank " << i;
              ASSERT_EQ(key_of(s), key_of(walked[i]))
                  << name << " " << region.label() << " rank " << i;
              if (i + 1 < count) {
                ASSERT_TRUE(cursor.next(s));
                ASSERT_EQ(key_of(s), key_of(walked[i + 1]))
                    << name << " " << region.label() << " after rank " << i;
              } else {
                EXPECT_FALSE(cursor.next(s));
              }
            }
            BlockCursor past_end(space, region, tb);
            EXPECT_FALSE(past_end.seek(count, s)) << region.label();
            EXPECT_FALSE(past_end.next(s)) << region.label();
            blocks += count > 0 ? 1 : 0;
            ranks += count;
          }
        }
      }
    }
    EXPECT_EQ(ranks, LazyUniverse(space).valid_count()) << name;
    EXPECT_GT(blocks, 100u) << name;
  }
}

TEST(BlockCursor, ReseekMatchesFreshCursor) {
  // One cursor seeks several times (its counter is narrowed by each seek
  // and widened by the next), against the settings a walk yields.
  SearchSpace space(reduced_spec("hypterm"), reduced_limits());
  std::uint64_t blocks = 0;
  for (const EnumRegion& region : build_regions(space)) {
    for (const std::int64_t x : space.parameter(kTBx).values) {
      const std::array<std::int64_t, 3> tb{region.is_free(kTBx) ? x : 1, 1,
                                           1};
      std::vector<Setting> walked;
      BlockCursor walker(space, region, tb);
      Setting s;
      while (walker.next(s)) walked.push_back(s);
      if (walked.empty()) continue;
      BlockCursor cursor(space, region, tb);
      const std::uint64_t n = walked.size();
      for (const std::uint64_t rank : {n - 1, std::uint64_t{0}, n / 2, n - 1}) {
        ASSERT_TRUE(cursor.seek(rank, s)) << region.label() << " " << rank;
        ASSERT_EQ(key_of(s), key_of(walked[rank]))
            << region.label() << " rank " << rank;
      }
      EXPECT_FALSE(cursor.seek(n, s)) << region.label();
      ASSERT_TRUE(cursor.seek(0, s));
      EXPECT_EQ(key_of(s), key_of(walked[0])) << region.label();
      ++blocks;
    }
  }
  EXPECT_GT(blocks, 50u);
}

TEST(BlockCursor, FrontierVerdictMatchesCheckerOnEveryTrial) {
  // next() judges each partial assignment (deeper parameters at 1) by the
  // block's frontier instead of ConstraintChecker. Over every block of two
  // full-size benchmark stencils, seek to a salted rank and take the next
  // kLeaves leaves: every assignment next() judges on the way, admitted or
  // not, must get the checker's verdict.
  constexpr std::uint64_t kLeaves = 24;
  const std::uint64_t salt = Rng(7).next() | 1;
  for (const char* name : {"j3d7pt", "rhs4center"}) {
    SearchSpace space(stencil::make_stencil(name));
    const auto max_threads = space.checker().limits().max_threads_per_block;
    std::uint64_t blocks = 0;
    std::uint64_t trials = 0;
    std::uint64_t mismatches = 0;
    std::size_t spill = 0;
    std::size_t block_regs = 0;
    std::size_t smem = 0;
    for (const EnumRegion& region : build_regions(space)) {
      const auto values_of = [&](ParamId id) {
        const std::int64_t pin = region.pinned[static_cast<std::size_t>(id)];
        return pin != 0 ? std::vector<std::int64_t>{pin}
                        : space.parameter(id).values;
      };
      for (const std::int64_t x : values_of(kTBx)) {
        for (const std::int64_t y : values_of(kTBy)) {
          for (const std::int64_t z : values_of(kTBz)) {
            if (x * y * z > max_threads) continue;
            const std::array<std::int64_t, 3> tb{x, y, z};
            const std::uint64_t count = count_block(space, region, tb);
            if (count == 0) continue;
            BlockCursor cursor(space, region, tb);
            cursor.observe_trials([&](const Setting& s, bool admitted) {
              ++trials;
              const auto why = space.checker().violation(s);
              if (admitted != !why.has_value()) {
                if (mismatches++ == 0) {
                  ADD_FAILURE() << name << " " << region.label() << ": "
                                << s.to_string() << " admitted=" << admitted
                                << " checker: " << why.value_or("valid");
                }
              }
              if (!why.has_value()) return;
              spill += why->starts_with("register spill") ? 1 : 0;
              block_regs += why->starts_with("block needs") ? 1 : 0;
              smem += why->starts_with("shared memory") ? 1 : 0;
            });
            Setting s;
            ASSERT_TRUE(cursor.seek(hash_combine(salt, blocks) % count, s));
            for (std::uint64_t i = 0; i < kLeaves && cursor.next(s); ++i) {
            }
            ++blocks;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << name << " of " << trials << " trials";
    EXPECT_GT(blocks, 1000u) << name;
    // Rejections reach every resource rule, not just the candidate caps.
    EXPECT_GT(spill, 0u) << name;
    EXPECT_GT(block_regs, 0u) << name;
    EXPECT_GT(smem, 0u) << name;
  }
}

TEST(LazyUniverse, SaltedSampleVisitsAtMostStrideLeavesPerPick) {
  // The comb is located by an unrank, not a walk from the block start, so
  // a salted sample's leaf visits are bounded by k * max_spread_stride
  // whatever hashed phase each block gets. At least every pick is visited.
  SearchSpace space(stencil::make_stencil("j3d7pt"));
  LazyUniverse lazy(space);
  const std::size_t k = 2000;
  const LazyUniverseOptions defaults;
  auto& walked = obs::metrics().counter("space.spread_leaves_walked");
  for (const std::uint64_t salt : {std::uint64_t{0}, Rng(7).next() | 1}) {
    const std::uint64_t before = walked.value();
    ASSERT_EQ(lazy.spread_sample(k, salt).size(), k);
    const std::uint64_t visits = walked.value() - before;
    EXPECT_LE(visits, k * defaults.max_spread_stride) << "salt " << salt;
    if (obs::kCompiledIn) {
      EXPECT_GE(visits, k) << "salt " << salt;
    }
  }
}

TEST(LazyUniverse, SaltedSampleMatchesGoldenDigests) {
  // spread_sample(8000, salt) on the full Table I space of every benchmark
  // stencil. The first salt is the CLI's (`tune --seed 7`: CsTuner salts
  // with its RNG's first draw, forced odd). A salted comb starts at a
  // hashed rank inside each block, so these pin how picks are located.
  // The digests were recorded when each phase was reached by walking from
  // the block start; the unrank must land on the same settings.
  const std::uint64_t cli_salt = Rng(7).next() | 1;
  struct Golden {
    const char* stencil;
    std::array<std::uint64_t, 3> digests;  // per salt below
  };
  const std::array<std::uint64_t, 3> salts = {cli_salt, 1,
                                              0x5EED5EED5EED5EEDULL};
  const Golden golden[] = {
      {"j3d7pt",
       {0x348D7B08509E131AULL, 0x0FD30B4834287E05ULL, 0xE7033BF5C093D6E7ULL}},
      {"j3d27pt",
       {0x348D7B08509E131AULL, 0x0FD30B4834287E05ULL, 0xE7033BF5C093D6E7ULL}},
      {"helmholtz",
       {0x7E5D0241B7AB9A15ULL, 0x5E7C28EDF5F38261ULL, 0x3AC10E792E610595ULL}},
      {"cheby",
       {0xE3E3F66D9EBE6B94ULL, 0xA80AFC99E9464FA5ULL, 0xA3D3D66DE4D9C10AULL}},
      {"hypterm",
       {0x34C8D37D363B45D8ULL, 0x8249126E355450D8ULL, 0x286C6225616A7341ULL}},
      {"addsgd4",
       {0x7021F9BD7E8FFCB0ULL, 0x24BA2D454391308BULL, 0x428444C95EC5C3D0ULL}},
      {"addsgd6",
       {0x93F570CD9C8BC35AULL, 0x21FE416FCA598917ULL, 0x8EFA87381D9117D8ULL}},
      {"rhs4center",
       {0x83EB1048FB967838ULL, 0x80D037FEAD6DDD5AULL, 0x71C86F07167A42E7ULL}},
  };
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}}) {
    ThreadPool pool(workers);
    for (const Golden& g : golden) {
      SearchSpace space(stencil::make_stencil(g.stencil));
      LazyUniverse lazy(space, {}, &pool);
      for (std::size_t s = 0; s < salts.size(); ++s) {
        const auto sample = lazy.spread_sample(8000, salts[s]);
        ASSERT_EQ(sample.size(), 8000u) << g.stencil;
        EXPECT_EQ(digest(sample), g.digests[s])
            << g.stencil << " salt " << salts[s] << ", " << workers
            << " workers";
      }
    }
  }
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
