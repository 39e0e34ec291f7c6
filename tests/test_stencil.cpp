#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "stencil/reference_kernel.hpp"
#include "stencil/stencils.hpp"

namespace cstuner::stencil {
namespace {

TEST(StencilSuite, AllEightStencilsExist) {
  EXPECT_EQ(stencil_names().size(), 8u);
  for (const auto& name : stencil_names()) {
    EXPECT_EQ(make_stencil(name).name, name);
  }
}

TEST(StencilSuite, UnknownNameThrows) {
  EXPECT_THROW(make_stencil("nosuch"), UsageError);
}

/// Table III rows, verbatim from the paper.
struct TableIIIRow {
  const char* name;
  int grid;
  int order;
  int flops;
  int io_arrays;
};

// Print the row by name so test IDs do not carry pointer bytes.
void PrintTo(const TableIIIRow& r, std::ostream* os) { *os << r.name; }

class TableIIITest : public ::testing::TestWithParam<TableIIIRow> {};

TEST_P(TableIIITest, MatchesPaper) {
  const auto& row = GetParam();
  const auto spec = make_stencil(row.name);
  EXPECT_EQ(spec.grid[0], row.grid);
  EXPECT_EQ(spec.grid[1], row.grid);
  EXPECT_EQ(spec.grid[2], row.grid);
  EXPECT_EQ(spec.order, row.order);
  EXPECT_EQ(spec.flops, row.flops);
  EXPECT_EQ(spec.io_arrays, row.io_arrays);
  EXPECT_EQ(spec.n_inputs + spec.n_outputs, spec.io_arrays);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableIIITest,
    ::testing::Values(TableIIIRow{"j3d7pt", 512, 1, 10, 2},
                      TableIIIRow{"j3d27pt", 512, 1, 32, 2},
                      TableIIIRow{"helmholtz", 512, 2, 17, 2},
                      TableIIIRow{"cheby", 512, 1, 38, 5},
                      TableIIIRow{"hypterm", 320, 4, 358, 13},
                      TableIIIRow{"addsgd4", 320, 2, 373, 10},
                      TableIIIRow{"addsgd6", 320, 3, 626, 10},
                      TableIIIRow{"rhs4center", 320, 2, 666, 8}),
    [](const auto& info) { return std::string(info.param.name); });

class StencilShapeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StencilShapeTest, TapsRespectOrder) {
  const auto spec = make_stencil(GetParam());
  int max_offset = 0;
  for (const auto& t : spec.taps) {
    max_offset = std::max({max_offset, std::abs(t.dx), std::abs(t.dy),
                           std::abs(t.dz)});
    EXPECT_GE(t.array, 0);
    EXPECT_LT(t.array, spec.n_inputs);
  }
  EXPECT_EQ(max_offset, spec.order);
}

TEST_P(StencilShapeTest, EveryInputArrayIsRead) {
  const auto spec = make_stencil(GetParam());
  std::set<int> arrays;
  for (const auto& t : spec.taps) arrays.insert(t.array);
  EXPECT_EQ(arrays.size(), static_cast<std::size_t>(spec.n_inputs));
}

TEST_P(StencilShapeTest, DerivedQuantitiesConsistent) {
  const auto spec = make_stencil(GetParam());
  EXPECT_GT(spec.points(), 0);
  EXPECT_DOUBLE_EQ(spec.total_flops(),
                   static_cast<double>(spec.flops) *
                       static_cast<double>(spec.points()));
  EXPECT_GT(spec.arithmetic_intensity(), 0.0);
  // Centre tap present for every input 0 pattern.
  bool has_center = false;
  for (const auto& t : spec.taps) {
    if (t.dx == 0 && t.dy == 0 && t.dz == 0) has_center = true;
  }
  EXPECT_TRUE(has_center);
}

INSTANTIATE_TEST_SUITE_P(AllStencils, StencilShapeTest,
                         ::testing::ValuesIn(stencil_names()),
                         [](const auto& info) { return info.param; });

TEST(TapBuilders, StarTapCount) {
  EXPECT_EQ(make_star_taps(1, 0, 1.0).size(), 7u);
  EXPECT_EQ(make_star_taps(2, 0, 1.0).size(), 13u);
  EXPECT_EQ(make_star_taps(4, 0, 1.0).size(), 25u);
}

TEST(TapBuilders, BoxTapCount) {
  EXPECT_EQ(make_box_taps(0, 1.0).size(), 27u);
}

TEST(Grid3, IndexingRoundTrip) {
  Grid3 g(4, 5, 6, 2);
  g.at(-2, -2, -2) = 1.5;
  g.at(3, 4, 5) = 2.5;
  g.at(5, 6, 7) = 3.5;  // halo corner
  EXPECT_DOUBLE_EQ(g.at(-2, -2, -2), 1.5);
  EXPECT_DOUBLE_EQ(g.at(3, 4, 5), 2.5);
  EXPECT_DOUBLE_EQ(g.at(5, 6, 7), 3.5);
}

TEST(Grid3, OutOfHaloThrows) {
  Grid3 g(4, 4, 4, 1);
  EXPECT_THROW(g.at(-2, 0, 0), Error);
  EXPECT_THROW(g.at(0, 5, 0), Error);
}

TEST(Grid3, FillPatternDeterministicAndSaltDependent) {
  Grid3 a(4, 4, 4, 1), b(4, 4, 4, 1), c(4, 4, 4, 1);
  a.fill_pattern(1);
  b.fill_pattern(1);
  c.fill_pattern(2);
  EXPECT_DOUBLE_EQ(Grid3::max_abs_diff(a, b), 0.0);
  EXPECT_GT(Grid3::max_abs_diff(a, c), 0.0);
}

TEST(Grid3, PatternValuesBounded) {
  Grid3 g(6, 6, 6, 2);
  g.fill_pattern(3);
  for (int z = -2; z < 8; ++z) {
    for (int y = -2; y < 8; ++y) {
      for (int x = -2; x < 8; ++x) {
        EXPECT_GE(g.at(x, y, z), 0.5);
        EXPECT_LT(g.at(x, y, z), 1.5);
      }
    }
  }
}

TEST(ReferenceKernel, ConstantInputStarGivesWeightSum) {
  auto spec = scaled_stencil("j3d7pt", 8);
  GridSet grids = make_grids(spec);
  grids.inputs[0].fill(1.0);
  run_reference(spec, grids.inputs, grids.outputs);
  // With input == 1, each point is the sum of tap weights, then the
  // pointwise rounds — identical at every point.
  const double v0 = grids.outputs[0].at(0, 0, 0);
  EXPECT_DOUBLE_EQ(grids.outputs[0].at(4, 4, 4), v0);
  double weight_sum = 0.0;
  for (const auto& t : spec.taps) weight_sum += t.weight;
  // No pointwise rounds change for j3d7pt? apply same rounds:
  double expected = weight_sum;
  for (int r = 0; r < pointwise_rounds(spec); ++r) {
    expected = expected * 1.0000001 + 1e-12;
  }
  EXPECT_NEAR(v0, expected, 1e-12);
}

TEST(ReferenceKernel, OutputArraysScaleInversely) {
  auto spec = scaled_stencil("cheby", 8);
  GridSet grids = make_grids(spec);
  run_reference(spec, grids.inputs, grids.outputs);
  // Output o is scaled by 1/(o+1) before the pointwise rounds; with zero
  // rounds they would be exactly proportional. Allow the rounds' epsilon.
  const double a = grids.outputs[0].at(3, 3, 3);
  const double b = grids.outputs[1].at(3, 3, 3);
  EXPECT_NEAR(a / b, 2.0, 1e-4);
}

TEST(ReferenceKernel, PointwiseRoundsMatchFlopBudget) {
  for (const auto& name : stencil_names()) {
    const auto spec = make_stencil(name);
    const int from_taps =
        static_cast<int>(spec.taps.size()) * 2 * spec.n_outputs;
    if (from_taps >= spec.flops) {
      EXPECT_EQ(pointwise_rounds(spec), 0) << name;
    } else {
      EXPECT_GT(pointwise_rounds(spec), 0) << name;
    }
  }
}

TEST(ScaledStencil, PreservesPatternShrinksGrid) {
  const auto spec = scaled_stencil("hypterm", 24);
  const auto full = make_stencil("hypterm");
  EXPECT_EQ(spec.grid[0], 24);
  EXPECT_EQ(spec.taps.size(), full.taps.size());
  EXPECT_EQ(spec.flops, full.flops);
}

TEST(ScaledStencil, TooSmallForOrderThrows) {
  EXPECT_THROW(scaled_stencil("hypterm", 6), Error);
}

}  // namespace
}  // namespace cstuner::stencil
