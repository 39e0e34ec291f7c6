#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exec/cpu_executor.hpp"
#include "space/search_space.hpp"
#include "stencil/dsl.hpp"
#include "stencil/stencils.hpp"

namespace cstuner::stencil {
namespace {

const char* kWaveDsl = R"(
# 3-D order-2 wave-equation style stencil
stencil wave
grid 128 128 128
arrays 2 1
star 0 2 1.0
tap 1 0 0 0 -1.0
flops 40
)";

TEST(Dsl, ParsesCompleteDocument) {
  const auto spec = parse_stencil(kWaveDsl);
  EXPECT_EQ(spec.name, "wave");
  EXPECT_EQ(spec.grid[0], 128);
  EXPECT_EQ(spec.n_inputs, 2);
  EXPECT_EQ(spec.n_outputs, 1);
  EXPECT_EQ(spec.io_arrays, 3);
  EXPECT_EQ(spec.order, 2);                // derived from the star taps
  EXPECT_EQ(spec.taps.size(), 13u + 1u);   // order-2 star + leapfrog tap
  EXPECT_EQ(spec.flops, 40);
}

TEST(Dsl, CommentsAndBlankLinesIgnored) {
  const auto spec = parse_stencil(
      "stencil s\n\n# full line comment\ngrid 32 32 32  # trailing\n"
      "star 0 1 1.0\n");
  EXPECT_EQ(spec.name, "s");
  EXPECT_EQ(spec.taps.size(), 7u);
}

TEST(Dsl, FlopsDefaultsToTapBudget) {
  const auto spec =
      parse_stencil("stencil s\ngrid 32 32 32\nstar 0 1 1.0\n");
  EXPECT_EQ(spec.flops, 7 * 2);  // 7 taps, mul+add, one output
  EXPECT_EQ(spec.pointwise_ops, 0);
}

TEST(Dsl, BoxDirective) {
  const auto spec =
      parse_stencil("stencil s\ngrid 32 32 32\nbox 0 0.5\n");
  EXPECT_EQ(spec.taps.size(), 27u);
  EXPECT_EQ(spec.order, 1);
}

struct DslError {
  const char* name;
  const char* text;
  const char* needle;
};

// Print the case by name so test IDs do not carry pointer bytes.
void PrintTo(const DslError& e, std::ostream* os) { *os << e.name; }

class DslErrorTest : public ::testing::TestWithParam<DslError> {};

TEST_P(DslErrorTest, RejectsWithDiagnostic) {
  try {
    parse_stencil(GetParam().text);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().needle),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DslErrorTest,
    ::testing::Values(
        DslError{"missing_name", "grid 32 32 32\nstar 0 1 1.0\n",
                 "missing 'stencil"},
        DslError{"missing_grid", "stencil s\nstar 0 1 1.0\n",
                 "missing 'grid"},
        DslError{"no_taps", "stencil s\ngrid 32 32 32\n", "no taps"},
        DslError{"bad_directive",
                 "stencil s\ngrid 32 32 32\nfrobnicate 1\n",
                 "unknown directive"},
        DslError{"bad_arity", "stencil s\ngrid 32 32\n", "expects 3"},
        DslError{"bad_integer", "stencil s\ngrid 32 32 zz\n",
                 "expected integer"},
        DslError{"bad_array_ref",
                 "stencil s\ngrid 32 32 32\ntap 3 0 0 0 1.0\n",
                 "references array"},
        DslError{"grid_too_small",
                 "stencil s\ngrid 6 32 32\nstar 0 3 1.0\n", "too small"},
        DslError{"tiny_grid", "stencil s\ngrid 2 32 32\nstar 0 1 1.0\n",
                 ">= 4"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Dsl, RoundTripsThroughToDsl) {
  const auto original = parse_stencil(kWaveDsl);
  const auto reparsed = parse_stencil(to_dsl(original));
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.grid, original.grid);
  EXPECT_EQ(reparsed.order, original.order);
  EXPECT_EQ(reparsed.flops, original.flops);
  ASSERT_EQ(reparsed.taps.size(), original.taps.size());
  for (std::size_t i = 0; i < original.taps.size(); ++i) {
    EXPECT_EQ(reparsed.taps[i].array, original.taps[i].array);
    EXPECT_EQ(reparsed.taps[i].dx, original.taps[i].dx);
    EXPECT_DOUBLE_EQ(reparsed.taps[i].weight, original.taps[i].weight);
  }
}

TEST(Dsl, BuiltInSuiteRoundTrips) {
  for (const auto& name : stencil_names()) {
    const auto original = make_stencil(name);
    const auto reparsed = parse_stencil(to_dsl(original));
    EXPECT_EQ(reparsed.order, original.order) << name;
    EXPECT_EQ(reparsed.flops, original.flops) << name;
    EXPECT_EQ(reparsed.taps.size(), original.taps.size()) << name;
    EXPECT_EQ(reparsed.io_arrays, original.io_arrays) << name;
  }
}

TEST(Dsl, ParsedStencilWorksEndToEnd) {
  // A DSL-defined stencil must flow through the space/executor unchanged.
  auto spec = parse_stencil(kWaveDsl);
  spec.grid = {16, 16, 16};
  space::SearchSpace search_space(spec);
  Rng rng(4);
  const auto setting = search_space.random_valid(rng);
  EXPECT_EQ(exec::max_divergence_from_reference(spec, setting), 0.0);
}

TEST(Dsl, MissingFileThrows) {
  EXPECT_THROW(load_stencil_file("/nonexistent/path.stencil"), UsageError);
}

}  // namespace
}  // namespace cstuner::stencil
