#pragma once
// Static analyzer for generated CUDA kernels (ISSUE 2, tentpole). Runs over
// a (StencilSpec, Setting) pair and the kernel the codegen layer emitted for
// it, proving three families of properties without ever invoking nvcc:
//
//   race      — every shared-tile staging write is separated from tap reads
//               by a uniform __syncthreads(); loop-carried WAR hazards
//               (streaming/temporal restaging) are barriered; no barrier
//               sits in divergent control flow.
//   bounds    — global accesses stay inside the HALO-padded domain and are
//               guarded (or clamped); shared-tile indices stay inside the
//               declared tile extents for the active block shape; the launch
//               geometry covers the whole domain.
//   resource  — the shared/constant/register footprint encoded in the
//               source (tile declarations, c_weights, __launch_bounds__)
//               is re-derived independently and cross-checked against
//               space::estimate_resources, the resource limits, and the
//               occupancy model (the kernel must be launchable at all).
//
// The fourth pass (search-space lint) lives in analysis/space_lint.hpp.

#include "analysis/diagnostic.hpp"
#include "analysis/kernel_model.hpp"
#include "codegen/cuda_codegen.hpp"
#include "gpusim/gpu_arch.hpp"
#include "space/resource_model.hpp"
#include "space/setting.hpp"
#include "stencil/stencil_spec.hpp"

namespace cstuner::analysis {

struct AnalyzerOptions {
  bool race = true;
  bool bounds = true;
  bool resources = true;
  space::ResourceLimits limits{};
  /// When set, the resource pass additionally verifies the kernel is
  /// launchable on this architecture (occupancy > 0).
  const gpusim::GpuArch* arch = nullptr;
};

/// Pass 1: shared-memory race detection over the parsed kernel structure.
void check_races(const KernelModel& model, Report& report);

/// Pass 2: bounds/halo analysis of global and shared-tile accesses.
void check_bounds(const stencil::StencilSpec& spec,
                  const space::Setting& setting, const KernelModel& model,
                  Report& report);

/// Pass 3: independent re-derivation of the resource footprint and
/// cross-validation against the resource model / limits / occupancy.
void check_resources(const stencil::StencilSpec& spec,
                     const space::Setting& setting,
                     const codegen::KernelSource& kernel,
                     const KernelModel& model, const AnalyzerOptions& options,
                     Report& report);

/// Parses `kernel` and runs the enabled kernel-level passes.
Report analyze_kernel(const stencil::StencilSpec& spec,
                      const space::Setting& setting,
                      const codegen::KernelSource& kernel,
                      const AnalyzerOptions& options = {});

/// Convenience: generates the kernel for (spec, setting), then analyzes it.
Report analyze_setting(const stencil::StencilSpec& spec,
                       const space::Setting& setting,
                       const AnalyzerOptions& options = {});

}  // namespace cstuner::analysis
