// Tests for the static analyzer (ISSUE 2): clean bills of health on every
// seed stencil, seeded mutation tests proving each pass catches the defect
// class it exists for, search-space lint, and the tuner-side pruner.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/kernel_model.hpp"
#include "analysis/pruner.hpp"
#include "analysis/space_lint.hpp"
#include "codegen/cuda_codegen.hpp"
#include "common/error.hpp"
#include "gpusim/simulator.hpp"
#include "stencil/stencils.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::analysis {
namespace {

using space::kOn;
using space::Setting;

/// Replaces the first occurrence of `from` in `text`; asserts it was there
/// (a mutation that does not apply would silently test nothing).
std::string mutated(std::string text, const std::string& from,
                    const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor missing: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

AnalyzerOptions default_options() {
  AnalyzerOptions options;
  options.arch = &gpusim::a100();
  return options;
}

/// A setting exercising every structure the analyzer reasons about: shared
/// tiling, constant coefficients, 2.5-D streaming with prefetch, merging
/// and unrolling. Emits (for j3d7pt) tile0[4][10][18] and one staging sync.
Setting full_feature_setting() {
  Setting s;
  s.set(space::kTBx, 8);
  s.set(space::kTBy, 8);
  s.set(space::kUseShared, kOn);
  s.set(space::kUseConstant, kOn);
  s.set(space::kUseStreaming, kOn);
  s.set(space::kSD, 3);
  s.set(space::kSB, 8);
  s.set(space::kUsePrefetching, kOn);
  s.set(space::kCMx, 2);
  s.set(space::kUFx, 2);
  return s;
}

TEST(Analyzer, CleanOnEverySeedStencil) {
  const AnalyzerOptions options = default_options();
  for (const auto& spec : stencil::all_stencils()) {
    space::SearchSpace space(spec);
    Rng rng(17);
    for (int i = 0; i < 16; ++i) {
      const Setting setting = space.random_valid(rng);
      const Report report = analyze_setting(spec, setting, options);
      EXPECT_TRUE(report.empty())
          << spec.name << " " << setting.to_string() << "\n"
          << report.to_string();
    }
  }
}

TEST(Analyzer, CleanOnFullFeatureSetting) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  const Setting s = full_feature_setting();
  ASSERT_TRUE(space.is_valid(s))
      << space.checker().violation(s).value_or("");
  const Report report = analyze_setting(spec, s, default_options());
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(KernelModel, ParsesEmittedStructure) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const auto kernel = codegen::generate_kernel(spec, full_feature_setting());
  Report report;
  const KernelModel model = KernelModel::parse(kernel.source, &report);
  EXPECT_TRUE(report.empty()) << report.to_string();
  EXPECT_TRUE(model.has_guard);
  EXPECT_TRUE(model.uses_shared());
  ASSERT_EQ(model.tiles.size(), 1u);
  // Streaming along z with prefetch: (2*order+1+1) planes, [z][y][x] order.
  EXPECT_EQ(model.tiles[0].dims[0], 4);
  EXPECT_EQ(model.tiles[0].dims[1], 10);
  EXPECT_EQ(model.tiles[0].dims[2], 18);
  EXPECT_EQ(model.launch_bounds, 64);
  EXPECT_EQ(model.constant_count,
            static_cast<std::int64_t>(spec.taps.size()));
  EXPECT_EQ(model.define("M1"), spec.grid[0]);
  EXPECT_EQ(model.define("HALO"), spec.order);
}

// --- Seeded mutation tests: each pass must catch its corruption. ----------

TEST(MutationRace, DroppedStagingSyncIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  kernel.source = mutated(
      kernel.source,
      "__syncthreads();  // tile staged before any thread reads it", ";");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("race.rw-no-sync")) << report.to_string();
}

TEST(MutationRace, SyncInDivergentControlFlowIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  // A barrier inside the bounds-guarded else-branch deadlocks overhanging
  // blocks on real hardware.
  kernel.source = mutated(kernel.source, "double val0 = 0.0;",
                          "__syncthreads();\n        double val0 = 0.0;");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("race.divergent-sync")) << report.to_string();
}

TEST(MutationRace, DroppedRestagingBarrierIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  // The streaming loop restages the tile every iteration; without the
  // trailing barrier the next staging write races prior reads (WAR).
  kernel.source = mutated(
      kernel.source,
      "__syncthreads();  // tile restaged next iteration (WAR)", ";");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("race.war-loop-carry") ||
              report.has_rule("race.rw-no-sync"))
      << report.to_string();
}

TEST(MutationBounds, ShrunkenTileExtentIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  // x extent 18 = TBx*CMx*BMx + 2*order; 8 is too small for lx+2 with
  // an 8-thread block (reaches index 9).
  kernel.source = mutated(kernel.source, "tile0[4][10][18]", "tile0[4][10][8]");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("bounds.tile-overflow")) << report.to_string();
}

TEST(MutationBounds, DroppedHaloShiftIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  // The -x tap without its halo shift indexes tile0[...][lx-1] = -1 for
  // thread 0 — the original codegen bug class this pass exists for.
  kernel.source = mutated(kernel.source, "[lz+1][ly+1][lx]",
                          "[lz+1][ly+1][lx-1]");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("bounds.negative-index")) << report.to_string();
}

TEST(MutationBounds, WrongHaloDefineIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  kernel.source = mutated(kernel.source, "#define HALO 1", "#define HALO 0");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("bounds.domain-mismatch")) << report.to_string();
}

TEST(MutationResource, MisreportedSharedBytesIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  kernel.resources.shared_mem_per_block += 1024;
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("resource.smem-drift")) << report.to_string();
}

TEST(MutationResource, WrongLaunchBoundsIsCaught) {
  const auto spec = stencil::make_stencil("j3d7pt");
  const Setting s = full_feature_setting();
  codegen::KernelSource kernel = codegen::generate_kernel(spec, s);
  kernel.source = mutated(kernel.source, "__launch_bounds__(64)",
                          "__launch_bounds__(128)");
  const Report report = analyze_kernel(spec, s, kernel, default_options());
  EXPECT_TRUE(report.has_rule("resource.launch-drift")) << report.to_string();
}

// --- Pass 4: search-space lint. -------------------------------------------

TEST(SpaceLint, SeedSpaceHasNoDeadValuesOnLightStencil) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  const SpaceLintResult result = lint_space(space, propagate(space));
  EXPECT_EQ(result.dead_values, 0u) << result.report.to_string();
  EXPECT_TRUE(result.report.clean());
  // The canonical streaming encoding makes (streaming=off, SD>1) jointly
  // infeasible — the lint must surface it as a prunable subspace.
  EXPECT_TRUE(result.report.has_rule("space.dead-subspace"))
      << result.report.to_string();
  EXPECT_GT(result.sampled_valid_fraction, 0.0);
  EXPECT_LT(result.sampled_valid_fraction, 1.0);
}

TEST(SpaceLint, RegisterBoundStencilHasDeadMergeFactors) {
  // hypterm's per-point register pressure makes the largest merge factors
  // infeasible under every support configuration (verified by sweep).
  const auto spec = stencil::make_stencil("hypterm");
  space::SearchSpace space(spec);
  const SpaceLintResult result = lint_space(space, propagate(space));
  EXPECT_GT(result.dead_values, 0u);
  EXPECT_TRUE(result.report.has_rule("space.dead-value"))
      << result.report.to_string();
  EXPECT_FALSE(result.value_is_live(space::kCMx, 64, space));
  EXPECT_TRUE(result.value_is_live(space::kCMx, 1, space));
}

// --- Tuner-side static pruning. -------------------------------------------

TEST(StaticPruner, MemoizesByCanonicalHash) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  StaticPruner pruner(space);
  Setting valid;  // all ones
  EXPECT_TRUE(pruner.is_valid(valid));
  EXPECT_TRUE(pruner.is_valid(valid));
  // Streaming-off aliases collapse to the same canonical encoding, so the
  // second query must be a memo hit even though the raw settings differ.
  Setting alias = valid;
  alias.set(space::kSD, 3);
  EXPECT_TRUE(pruner.is_valid(alias));
  const auto stats = pruner.stats();
  EXPECT_EQ(stats.checked, 3u);
  EXPECT_EQ(stats.memo_hits, 2u);
  EXPECT_EQ(stats.pruned, 0u);
}

TEST(StaticPruner, FilterAndPruneDropInvalidSettings) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  StaticPruner pruner(space);
  Setting invalid;
  invalid.set(space::kUFx, 8);  // exceeds merged trip count 1
  std::vector<Setting> batch{Setting{}, invalid, Setting{}};
  const auto keep = pruner.filter(batch);
  ASSERT_EQ(keep.size(), 3u);
  EXPECT_TRUE(keep[0]);
  EXPECT_FALSE(keep[1]);
  EXPECT_TRUE(keep[2]);
  EXPECT_EQ(pruner.prune(batch), 1u);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_GT(pruner.stats().pruned, 0u);
}

// --- Evaluator debug precheck. --------------------------------------------

TEST(DebugPrecheck, ValidSettingsEvaluateIdentically) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  tuner::Evaluator plain(sim, space, {}, 3, nullptr);
  tuner::Evaluator checked(sim, space, {}, 3, nullptr);
  checked.set_debug_precheck(true);
  Rng rng(29);
  std::vector<Setting> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(space.random_valid(rng));
  const auto a = plain.evaluate_batch(batch);
  const auto b = checked.evaluate_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].time_ms, b[i].time_ms);
  }
  EXPECT_EQ(plain.virtual_time_s(), checked.virtual_time_s());
}

TEST(DebugPrecheck, InvalidSettingsStayUncharged) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  tuner::Evaluator evaluator(sim, space, {}, 3, nullptr);
  evaluator.set_debug_precheck(true);
  Setting invalid;
  invalid.set(space::kUFx, 8);
  // Invalid settings are filtered before the precheck: infinity, no throw.
  EXPECT_TRUE(std::isinf(evaluator.evaluate(invalid)));
  EXPECT_EQ(evaluator.unique_evaluations(), 0u);
}

}  // namespace
}  // namespace cstuner::analysis
