#pragma once
// Umbrella header: the public API of the csTuner reproduction.
//
// Typical usage (see examples/quickstart.cpp):
//
//   auto spec = cstuner::stencil::make_stencil("j3d7pt");
//   cstuner::space::SearchSpace space(spec);
//   cstuner::gpusim::Simulator sim(cstuner::gpusim::a100());
//   cstuner::tuner::Evaluator evaluator(sim, space);
//   cstuner::core::CsTuner tuner;
//   tuner.tune(evaluator, {.max_virtual_seconds = 100.0});
//   // evaluator.best_setting() / evaluator.best_time_ms()

#include "analysis/analyzer.hpp"
#include "analysis/space_lint.hpp"
#include "baselines/artemis.hpp"
#include "baselines/garvey.hpp"
#include "baselines/opentuner.hpp"
#include "codegen/cuda_codegen.hpp"
#include "core/cs_tuner.hpp"
#include "exec/cpu_executor.hpp"
#include "gpusim/simulator.hpp"
#include "search/meta_tuner.hpp"
#include "search/optimizer.hpp"
#include "search/registry.hpp"
#include "search/tournament.hpp"
#include "space/search_space.hpp"
#include "stencil/dsl.hpp"
#include "stencil/stencils.hpp"
#include "tuner/evaluator.hpp"
