#pragma once
// The GPU kernel-execution simulator: composes the occupancy, memory and
// compute models into an execution time plus a Nsight-style metric vector.
// This is the (setting -> time, metrics) oracle every auto-tuner queries in
// place of the paper's real A100/V100 runs (DESIGN.md §2).
//
// Determinism: the noise-free profile is a pure function of
// (arch, stencil, setting); measurement noise is seeded from the same tuple
// plus the run index, so whole experiments are reproducible yet repeated
// "runs" differ like real measurements.
//
// Throughput: per-(arch, stencil) invariants are hoisted once into a cached
// StencilInvariants, and the batch entry point (profile_times) runs the
// model as stage loops over contiguous scratch arrays with zero allocation
// per setting. Scalar and batch paths execute the same inline stage bodies
// (model_kernels.hpp), so batch results are bit-identical to profile() by
// construction (docs/performance.md).

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "codegen/cuda_codegen.hpp"
#include "gpusim/compute_model.hpp"
#include "gpusim/gpu_arch.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/stencil_invariants.hpp"
#include "space/setting.hpp"
#include "stencil/stencil_spec.hpp"

namespace cstuner::gpusim {

struct KernelProfile {
  double time_ms = 0.0;  ///< noise-free execution time of one sweep
  std::array<double, kMetricCount> metrics{};
  space::ResourceUsage resources;
  OccupancyResult occupancy;
  codegen::LaunchGeometry geometry;
  MemoryAnalysis memory;
  ComputeAnalysis compute;

  double metric(MetricId id) const {
    return metrics[static_cast<std::size_t>(id)];
  }
};

class Simulator {
 public:
  explicit Simulator(const GpuArch& arch) : arch_(arch) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const GpuArch& arch() const { return arch_; }

  /// Hoisted per-(arch, stencil) model constants, computed on first use and
  /// cached for the lifetime of this simulator. Thread-safe; the returned
  /// reference stays valid until destruction.
  const StencilInvariants& invariants(const stencil::StencilSpec& spec) const;

  /// Noise-free analytical profile. The setting must satisfy the space
  /// constraints; throws ConstraintError for unlaunchable kernels
  /// (zero-occupancy configurations).
  KernelProfile profile(const stencil::StencilSpec& spec,
                        const space::Setting& setting) const;

  /// Time-only batch oracle (the evaluator hot path): out_ms[i] =
  /// profile(spec, settings[i]).time_ms, bit-identical, via SoA scratch
  /// arrays from a per-worker arena — zero heap allocation per setting in
  /// steady state. Requires out_ms.size() == settings.size().
  void profile_times(const StencilInvariants& inv,
                     std::span<const space::Setting> settings,
                     std::span<double> out_ms) const;

  /// profile_times with caller-supplied resource estimates. `usages[i]` must
  /// equal estimate_resources_core(...) under *default* ResourceLimits for
  /// settings[i] — e.g. the estimate a ConstraintChecker with default limits
  /// hands back from is_valid (check ResourceLimits equality before reusing;
  /// the estimator is pure, so equal limits give bit-identical usage). Skips
  /// the resource stage, nothing else changes.
  void profile_times(const StencilInvariants& inv,
                     std::span<const space::Setting> settings,
                     std::span<const space::ResourceUsage> usages,
                     std::span<double> out_ms) const;

  /// One simulated timing run: profile time with ~1.5% multiplicative
  /// measurement noise, deterministic in (arch, stencil, setting, run).
  double measure_ms(const stencil::StencilSpec& spec,
                    const space::Setting& setting,
                    std::uint64_t run_index) const;

  /// The noise application of measure_ms from precomputed pieces: equal to
  /// measure_ms(spec, setting, run_index) bit for bit when `noise_free_ms`
  /// is the profile time and `setting_hash` is setting.hash(). Lets batch
  /// callers profile once and draw several runs.
  double noisy_time_ms(const StencilInvariants& inv,
                       std::uint64_t setting_hash, double noise_free_ms,
                       std::uint64_t run_index) const;

  /// Same noise draw from the premixed seed
  /// hash_combine(inv.noise_seed_prefix, setting_hash) — hoistable across
  /// the runs of one evaluation. noisy_time_ms delegates here, so the two
  /// agree bit for bit by construction.
  static double noisy_time_from(std::uint64_t premixed_seed,
                                double noise_free_ms,
                                std::uint64_t run_index);

  /// Metric vector with mild measurement noise (dataset collection).
  std::array<double, kMetricCount> measure_metrics(
      const stencil::StencilSpec& spec, const space::Setting& setting,
      std::uint64_t run_index) const;

 private:
  /// Shared body of the two profile_times overloads; `precomputed_usages`
  /// is null when the resource stage must run.
  void profile_times_impl(const StencilInvariants& inv,
                          std::span<const space::Setting> settings,
                          const space::ResourceUsage* precomputed_usages,
                          std::span<double> out_ms) const;

  const GpuArch& arch_;

  // Invariants cache: tiny (one entry per stencil spec seen), append-only,
  // unique_ptr entries pin addresses so returned references stay valid.
  // The lock-free `last` pointer makes the common one-stencil-per-tune
  // lookup a single fingerprint compare.
  mutable std::mutex inv_mutex_;
  mutable std::vector<std::unique_ptr<StencilInvariants>> inv_cache_;
  mutable std::atomic<const StencilInvariants*> inv_last_{nullptr};
};

}  // namespace cstuner::gpusim
