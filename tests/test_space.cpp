#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"

namespace cstuner::space {
namespace {

stencil::StencilSpec test_spec() { return stencil::make_stencil("j3d7pt"); }

TEST(Parameters, TableIShape) {
  const auto params = make_parameters(test_spec());
  ASSERT_EQ(params.size(), kParamCount);
  // Table I allows TB dims up to 1024, but values beyond the grid extent
  // can never satisfy the coverage rule, so the space prunes them upfront.
  EXPECT_EQ(params[kTBx].values.back(), 512);
  EXPECT_EQ(params[kTBy].values.back(), 512);
  EXPECT_EQ(params[kTBz].values.back(), 64);
  EXPECT_EQ(params[kUseShared].values, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(params[kSD].values, (std::vector<std::int64_t>{1, 2, 3}));
  // SB admits up to the largest grid dimension.
  EXPECT_EQ(params[kSB].values.back(), 512);
}

TEST(Parameters, NumericValuesArePowersOfTwoFromOne) {
  for (const auto& p : make_parameters(test_spec())) {
    EXPECT_EQ(p.values.front(), 1) << p.name;
    if (p.kind == ParamKind::kPow2) {
      for (auto v : p.values) EXPECT_TRUE(is_pow2(v)) << p.name;
    }
  }
}

TEST(Parameters, MergeUnrollCapApplied) {
  SpaceLimits limits;
  limits.max_unroll = 8;
  limits.max_merge = 16;
  const auto params = make_parameters(test_spec(), limits);
  EXPECT_EQ(params[kUFx].values.back(), 8);
  EXPECT_EQ(params[kBMy].values.back(), 16);
  EXPECT_EQ(params[kCMz].values.back(), 16);
}

TEST(Parameters, ExtremeLimitsAndGridsKeepAtMost64Values) {
  // The symbolic engine's domain masks hold 64 values per parameter; every
  // limit and grid extent must stay inside that, including the int64/int
  // maxima where doubling a power of two would overflow.
  constexpr std::int64_t kLimits[] = {1,
                                      std::numeric_limits<std::int64_t>::max()};
  constexpr int kGrids[] = {1, std::numeric_limits<int>::max()};
  for (const std::int64_t limit : kLimits) {
    for (const int extent : kGrids) {
      auto spec = test_spec();
      spec.grid = {extent, extent, extent};
      SpaceLimits limits;
      limits.max_unroll = limit;
      limits.max_merge = limit;
      limits.max_tb_xy = limit;
      limits.max_tb_z = limit;
      limits.max_temporal = limit;
      for (const auto& p : make_parameters(spec, limits)) {
        EXPECT_GE(p.values.size(), 1u) << p.name;
        EXPECT_LE(p.values.size(), 64u) << p.name;
      }
    }
  }
}

TEST(Parameters, ValueIndexLookup) {
  const auto params = make_parameters(test_spec());
  EXPECT_EQ(params[kTBx].value_index(1), 0u);
  EXPECT_EQ(params[kTBx].value_index(32), 5u);
  EXPECT_THROW(params[kTBx].value_index(3), Error);
  EXPECT_TRUE(params[kTBx].contains(64));
  EXPECT_FALSE(params[kTBx].contains(3));
}

TEST(Parameters, DimensionTagging) {
  EXPECT_EQ(param_dimension(kTBx), 0);
  EXPECT_EQ(param_dimension(kUFy), 1);
  EXPECT_EQ(param_dimension(kBMz), 2);
  EXPECT_EQ(param_dimension(kUseShared), -1);
  EXPECT_TRUE(is_numeric(kSB));
  EXPECT_FALSE(is_numeric(kSD));
}

TEST(Setting, DefaultAllOnes) {
  Setting s;
  for (std::size_t i = 0; i < kParamCount; ++i) {
    EXPECT_EQ(s.get(static_cast<ParamId>(i)), 1);
  }
  EXPECT_EQ(s.threads_per_block(), 1);
  EXPECT_EQ(s.points_per_thread(), 1);
}

TEST(Setting, HashChangesWithAnyField) {
  Setting a;
  const auto base_hash = a.hash();
  for (std::size_t i = 0; i < kParamCount; ++i) {
    Setting b;
    b.set(static_cast<ParamId>(i), 2);
    EXPECT_NE(b.hash(), base_hash) << param_name(static_cast<ParamId>(i));
  }
}

TEST(Setting, ToStringShowsFlagsSymbolically) {
  Setting s;
  s.set(kUseShared, kOn);
  const auto str = s.to_string();
  EXPECT_NE(str.find("useShared=on"), std::string::npos);
  EXPECT_NE(str.find("usePrefetching=off"), std::string::npos);
  EXPECT_NE(str.find("TBx=1"), std::string::npos);
}

class ConstraintTest : public ::testing::Test {
 protected:
  ConstraintTest() : spec_(test_spec()), space_(spec_) {}

  Setting valid_base() {
    Setting s;
    s.set(kTBx, 32);
    s.set(kTBy, 4);
    return s;
  }

  stencil::StencilSpec spec_;
  SearchSpace space_;
};

TEST_F(ConstraintTest, ValidBaseAccepted) {
  EXPECT_TRUE(space_.is_valid(valid_base()));
}

TEST_F(ConstraintTest, InadmissibleValueRejected) {
  Setting s = valid_base();
  s.set(kTBx, 3);
  const auto why = space_.checker().violation(s);
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("admissible"), std::string::npos);
}

TEST_F(ConstraintTest, ThreadBlockSizeLimit) {
  Setting s = valid_base();
  s.set(kTBx, 1024);
  s.set(kTBy, 2);  // 2048 threads
  const auto why = space_.checker().violation(s);
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("1024"), std::string::npos);
}

TEST_F(ConstraintTest, StreamingFieldsRequireStreaming) {
  Setting s = valid_base();
  s.set(kSD, 2);
  EXPECT_FALSE(space_.is_valid(s));
  s = valid_base();
  s.set(kSB, 4);
  EXPECT_FALSE(space_.is_valid(s));
  s = valid_base();
  s.set(kUsePrefetching, kOn);
  EXPECT_FALSE(space_.is_valid(s));
}

TEST_F(ConstraintTest, CanonicalizationFixesStreamingFields) {
  Setting s = valid_base();
  s.set(kSD, 3);
  s.set(kSB, 16);
  s.set(kUsePrefetching, kOn);
  const Setting canonical = space_.checker().canonicalized(s);
  EXPECT_EQ(canonical.get(kSD), 1);
  EXPECT_EQ(canonical.get(kSB), 1);
  EXPECT_EQ(canonical.get(kUsePrefetching), kOff);
  EXPECT_TRUE(space_.is_valid(canonical));
}

TEST_F(ConstraintTest, StreamingDimensionMustCollapse) {
  Setting s = valid_base();
  s.set(kUseStreaming, kOn);
  s.set(kSD, 3);
  s.set(kSB, 64);
  s.set(kTBz, 2);  // violates TB=1 along SD
  EXPECT_FALSE(space_.is_valid(s));
  s.set(kTBz, 1);
  EXPECT_TRUE(space_.is_valid(s));
}

TEST_F(ConstraintTest, UnrollBoundedBySbInStreamingDimension) {
  Setting s = valid_base();
  s.set(kUseStreaming, kOn);
  s.set(kSD, 3);
  s.set(kSB, 4);
  s.set(kUFz, 8);  // UF_SD > SB
  EXPECT_FALSE(space_.is_valid(s));
  s.set(kUFz, 4);
  EXPECT_TRUE(space_.is_valid(s));
}

TEST_F(ConstraintTest, UnrollBoundedByMergedTripCount) {
  Setting s = valid_base();
  s.set(kUFy, 4);  // CMy*BMy == 1
  EXPECT_FALSE(space_.is_valid(s));
  s.set(kCMy, 2);
  s.set(kBMy, 2);
  EXPECT_TRUE(space_.is_valid(s));
}

TEST_F(ConstraintTest, CoverageCannotExceedGrid) {
  Setting s = valid_base();
  s.set(kTBz, 64);
  s.set(kCMz, 64);
  s.set(kBMz, 64);  // 64*64*64 = 262144 > 512 — but register limit hits
  EXPECT_FALSE(space_.is_valid(s));
}

TEST_F(ConstraintTest, RegisterSpillRejected) {
  Setting s = valid_base();
  // Huge merge products blow the register estimate.
  s.set(kCMx, 16);
  s.set(kBMx, 8);
  s.set(kCMy, 16);
  s.set(kBMy, 8);
  const auto why = space_.checker().violation(s);
  ASSERT_TRUE(why.has_value());
}

TEST_F(ConstraintTest, SharedMemoryCapacityEnforced) {
  ResourceLimits tight;
  tight.max_smem_per_block = 1024;  // 1 KiB
  SearchSpace tiny(test_spec(), SpaceLimits{}, tight);
  Setting s = valid_base();
  s.set(kUseShared, kOn);
  s.set(kTBy, 16);
  const auto why = tiny.checker().violation(s);
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("shared memory"), std::string::npos);
}

TEST_F(ConstraintTest, RegisterFileLaunchabilityEnforced) {
  // 1024 threads with a register-hungry body cannot launch.
  Setting s;
  s.set(kTBx, 512);
  s.set(kTBy, 2);
  s.set(kCMz, 8);
  s.set(kBMz, 8);
  if (auto why = space_.checker().violation(s); why.has_value()) {
    // Either the per-thread or the per-block register rule must name
    // registers.
    EXPECT_NE(why->find("register"), std::string::npos);
  }
}

TEST_F(ConstraintTest, RepairShedsSharedMemoryPressure) {
  // Oversized shared tile: repair should shrink merges or drop useShared.
  ResourceLimits tight;
  tight.max_smem_per_block = 2048;
  SearchSpace tiny(test_spec(), SpaceLimits{}, tight);
  Setting s = valid_base();
  s.set(kUseShared, kOn);
  s.set(kTBy, 16);
  s.set(kCMy, 4);
  ASSERT_TRUE(tiny.checker().violation(s).has_value());
  const Setting repaired = tiny.checker().repaired(s);
  EXPECT_TRUE(tiny.is_valid(repaired))
      << tiny.checker().violation(repaired).value_or("");
}

TEST_F(ConstraintTest, RepairShedsRegisterPressure) {
  Setting s = valid_base();
  s.set(kCMx, 16);
  s.set(kBMx, 8);
  s.set(kCMy, 16);
  s.set(kBMy, 8);
  ASSERT_TRUE(space_.checker().violation(s).has_value());
  const Setting repaired = space_.checker().repaired(s);
  EXPECT_TRUE(space_.is_valid(repaired));
  // Repair only ever lowers values.
  for (std::size_t p = 0; p < kParamCount; ++p) {
    EXPECT_LE(repaired.get(static_cast<ParamId>(p)),
              s.get(static_cast<ParamId>(p)))
        << param_name(static_cast<ParamId>(p));
  }
}

TEST_F(ConstraintTest, RepairShrinksOversizedThreadBlock) {
  Setting s;
  s.set(kTBx, 1024);
  s.set(kTBy, 64);
  s.set(kTBz, 16);  // way past 1024 threads
  const Setting repaired = space_.checker().repaired(s);
  EXPECT_LE(repaired.threads_per_block(), 1024);
  EXPECT_TRUE(space_.is_valid(repaired));
}

TEST_F(ConstraintTest, RepairPreservesStreamingChoice) {
  Setting s = valid_base();
  s.set(kUseStreaming, kOn);
  s.set(kSD, 3);
  s.set(kSB, 64);
  s.set(kTBz, 4);   // violates 2.5-D blocking; repair must fix, not disable
  s.set(kUFz, 128); // violates UF <= SB
  const Setting repaired = space_.checker().repaired(s);
  EXPECT_TRUE(space_.is_valid(repaired));
  EXPECT_TRUE(repaired.flag(kUseStreaming));
  EXPECT_EQ(repaired.get(kTBz), 1);
  EXPECT_LE(repaired.get(kUFz), repaired.get(kSB));
}

TEST(ResourceModel, MergingIncreasesRegisters) {
  const auto spec = test_spec();
  Setting lean;
  lean.set(kTBx, 32);
  Setting merged = lean;
  merged.set(kCMx, 4);
  merged.set(kBMy, 4);
  EXPECT_GT(estimate_resources(spec, merged).registers_per_thread,
            estimate_resources(spec, lean).registers_per_thread);
}

TEST(ResourceModel, RetimingRelievesHighOrderPressure) {
  const auto spec = stencil::make_stencil("addsgd6");  // order 3
  Setting s;
  s.set(kTBx, 32);
  s.set(kCMx, 4);
  Setting retimed = s;
  retimed.set(kUseRetiming, kOn);
  EXPECT_LT(estimate_resources(spec, retimed).registers_per_thread,
            estimate_resources(spec, s).registers_per_thread);
}

TEST(ResourceModel, SharedMemoryOnlyWhenEnabled) {
  const auto spec = test_spec();
  Setting s;
  s.set(kTBx, 32);
  EXPECT_EQ(estimate_resources(spec, s).shared_mem_per_block, 0);
  s.set(kUseShared, kOn);
  EXPECT_GT(estimate_resources(spec, s).shared_mem_per_block, 0);
}

TEST(ResourceModel, StreamingWindowSmallerThanFullTile) {
  const auto spec = stencil::make_stencil("helmholtz");
  Setting full;
  full.set(kTBx, 32);
  full.set(kTBy, 8);
  full.set(kTBz, 8);
  full.set(kUseShared, kOn);
  Setting streamed = full;
  streamed.set(kUseStreaming, kOn);
  streamed.set(kSD, 3);
  streamed.set(kSB, 64);
  streamed.set(kTBz, 1);
  EXPECT_LT(estimate_resources(spec, streamed).shared_mem_per_block,
            estimate_resources(spec, full).shared_mem_per_block);
}

class SearchSpaceTest : public ::testing::Test {
 protected:
  SearchSpaceTest() : space_(test_spec()) {}
  SearchSpace space_;
};

TEST_F(SearchSpaceTest, RandomValidSettingsAreValid) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(space_.is_valid(space_.random_valid(rng)));
  }
}

TEST_F(SearchSpaceTest, UniverseIsDistinctAndValid) {
  Rng rng(2);
  const auto universe = space_.sample_universe(rng, 500);
  EXPECT_GE(universe.size(), 400u);  // rejection sampling may fall short
  std::set<std::uint64_t> hashes;
  for (const auto& s : universe) {
    EXPECT_TRUE(space_.is_valid(s));
    EXPECT_TRUE(hashes.insert(s.hash()).second) << "duplicate setting";
  }
}

TEST_F(SearchSpaceTest, CartesianSizeIsLarge) {
  // Paper: >100M configurations before implicit constraints.
  EXPECT_GT(space_.log10_cartesian_size(), 8.0);
}

TEST_F(SearchSpaceTest, FeatureRowUsesRawValues) {
  Setting s;
  s.set(kTBx, 64);
  const auto row = SearchSpace::to_feature_row(s);
  ASSERT_EQ(row.size(), kParamCount);
  EXPECT_DOUBLE_EQ(row[kTBx], 64.0);
  EXPECT_DOUBLE_EQ(row[kUseShared], 1.0);
}

TEST_F(SearchSpaceTest, CvEncodingLogsNumericOnly) {
  EXPECT_DOUBLE_EQ(SearchSpace::cv_encoded(kTBx, 8), 4.0);   // log2+1
  EXPECT_DOUBLE_EQ(SearchSpace::cv_encoded(kUseShared, 2), 2.0);
  EXPECT_DOUBLE_EQ(SearchSpace::cv_encoded(kSD, 3), 3.0);
}

TEST_F(SearchSpaceTest, DeterministicSamplingForSameSeed) {
  Rng a(42), b(42);
  const auto ua = space_.sample_universe(a, 100);
  const auto ub = space_.sample_universe(b, 100);
  ASSERT_EQ(ua.size(), ub.size());
  for (std::size_t i = 0; i < ua.size(); ++i) EXPECT_EQ(ua[i], ub[i]);
}

// --- canonicalized() / repaired() edge cases ------------------------------

TEST_F(ConstraintTest, StreamingDisabledSettingsAliasToOneEncoding) {
  // With streaming off, SD/SB/prefetching are inert; any assignment of them
  // must canonicalize (and hash) to the same encoding, or caches and dedup
  // would treat behaviorally identical kernels as distinct.
  Setting a = valid_base();
  a.set(kSD, 2);
  a.set(kSB, 64);
  a.set(kUsePrefetching, kOn);
  Setting b = valid_base();
  b.set(kSD, 3);
  b.set(kSB, 8);
  const Setting ca = space_.checker().canonicalized(a);
  const Setting cb = space_.checker().canonicalized(b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca.hash(), cb.hash());
  EXPECT_EQ(ca.get(kSD), 1);
  EXPECT_EQ(ca.get(kSB), 1);
  EXPECT_EQ(ca.get(kUsePrefetching), kOff);
}

TEST_F(ConstraintTest, CanonicalizationIsIdempotent) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Setting s = space_.random_setting(rng);
    const Setting once = space_.checker().canonicalized(s);
    EXPECT_EQ(once, space_.checker().canonicalized(once));
  }
}

TEST_F(ConstraintTest, RepairIsFixedPointAtAllOnes) {
  // The all-ones setting is valid in every space, so repair must return it
  // untouched — it is the sink every repair chain can terminate in.
  const Setting ones;
  ASSERT_TRUE(space_.is_valid(ones));
  EXPECT_EQ(space_.checker().repaired(ones), ones);
}

TEST_F(ConstraintTest, RepairTerminatesFromMaximalPressure) {
  // Every factor at its largest admissible value: repair has to walk the
  // longest possible shedding chain and still land on a valid setting.
  Setting s;
  for (std::size_t p = 0; p < kParamCount; ++p) {
    const auto id = static_cast<ParamId>(p);
    s.set(id, space_.parameter(id).values.back());
  }
  const Setting repaired = space_.checker().repaired(s);
  EXPECT_TRUE(space_.is_valid(repaired))
      << space_.checker().violation(repaired).value_or("");
}

TEST_F(ConstraintTest, RepairedIsAlwaysValidOnRandomInputs) {
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const Setting s = space_.random_setting(rng);
    const Setting repaired = space_.checker().repaired(s);
    EXPECT_TRUE(space_.is_valid(repaired))
        << "from " << s.to_string() << "\nto " << repaired.to_string()
        << "\nwhy " << space_.checker().violation(repaired).value_or("");
  }
}

TEST(ConstraintEdge, RepairedValidOnTinyGrid) {
  // A tiny grid makes the coverage rule bite on nearly every factor.
  const auto spec = stencil::scaled_stencil("j3d7pt", 8);
  SearchSpace tiny(spec);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const Setting repaired = tiny.checker().repaired(tiny.random_setting(rng));
    EXPECT_TRUE(tiny.is_valid(repaired))
        << tiny.checker().violation(repaired).value_or("");
  }
}

TEST(ConstraintEdge, RepairedValidWithStreamingAndTemporal) {
  SpaceLimits limits;
  limits.max_temporal = 4;
  SearchSpace space(test_spec(), limits);
  Rng rng(9);
  int streaming_temporal_seen = 0;
  for (int i = 0; i < 500; ++i) {
    Setting s = space.random_setting(rng);
    s.set(kUseStreaming, kOn);
    s.set(kTemporal, 4);
    const Setting repaired = space.checker().repaired(s);
    EXPECT_TRUE(space.is_valid(repaired))
        << space.checker().violation(repaired).value_or("");
    if (repaired.flag(kUseStreaming) && repaired.get(kTemporal) > 1) {
      ++streaming_temporal_seen;
    }
  }
  // Repair sheds pressure but must not systematically strip the
  // streaming+temporal combination the extension exists for.
  EXPECT_GT(streaming_temporal_seen, 0);
}

}  // namespace
}  // namespace cstuner::space
