#include "gpusim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "gpusim/model_kernels.hpp"

namespace cstuner::gpusim {

namespace {

/// Metric-vector assembly from the completed profile fields.
inline void assemble_metrics(const GpuArch& arch, const StencilInvariants& inv,
                             KernelProfile& p) {
  auto& m = p.metrics;
  m[kAchievedOccupancy] = p.occupancy.occupancy;
  {
    const double slots = static_cast<double>(arch.num_sms) *
                         std::max(p.occupancy.blocks_per_sm, 1);
    const double blocks = static_cast<double>(p.geometry.total_blocks());
    const double waves = std::ceil(blocks / slots);
    m[kWavesPerGrid] = waves;
    m[kSmEfficiency] =
        clamp(blocks / (waves * slots), 0.0, 1.0) *
        clamp(static_cast<double>(p.geometry.total_blocks()) /
                  static_cast<double>(arch.num_sms),
              0.0, 1.0);
  }
  m[kIpc] = p.compute.fp64_eff * p.compute.ilp;
  m[kL1HitRate] = p.memory.l1_hit_rate;
  m[kL2HitRate] = p.memory.l2_hit_rate;
  m[kDramReadGb] = p.memory.dram_read_bytes / 1e9;
  m[kDramWriteGb] = p.memory.dram_write_bytes / 1e9;
  m[kDramThroughputGbps] =
      (p.memory.dram_read_bytes + p.memory.dram_write_bytes) / 1e6 /
      std::max(p.time_ms, 1e-9);
  m[kGldEfficiency] = p.memory.coalescing_eff;
  m[kSmemBytesPerBlock] =
      static_cast<double>(p.resources.shared_mem_per_block);
  m[kRegistersPerThread] =
      static_cast<double>(p.resources.registers_per_thread);
  m[kWarpExecEfficiency] = p.compute.divergence_eff;
  {
    const double total = p.compute.flop_time_ms + p.memory.mem_time_ms +
                         p.compute.sync_time_ms + 1e-12;
    m[kStallMemoryRatio] = p.memory.mem_time_ms / total;
    m[kStallSyncRatio] = p.compute.sync_time_ms / total;
  }
  m[kFp64Efficiency] =
      inv.total_flops / 1e6 / std::max(p.time_ms, 1e-9) / arch.fp64_gflops;
}

[[noreturn]] void throw_unlaunchable(const space::Setting& setting) {
  throw ConstraintError(
      "kernel unlaunchable: zero blocks per SM for setting " +
      setting.to_string());
}

}  // namespace

const StencilInvariants& Simulator::invariants(
    const stencil::StencilSpec& spec) const {
  const std::uint64_t fp = stencil_fingerprint(arch_, spec);
  if (const StencilInvariants* last =
          inv_last_.load(std::memory_order_acquire);
      last != nullptr && last->fingerprint == fp) {
    return *last;
  }
  std::lock_guard<std::mutex> lock(inv_mutex_);
  for (const auto& entry : inv_cache_) {
    if (entry->fingerprint == fp) {
      inv_last_.store(entry.get(), std::memory_order_release);
      return *entry;
    }
  }
  inv_cache_.push_back(std::make_unique<StencilInvariants>(
      make_stencil_invariants(arch_, spec)));
  const StencilInvariants* created = inv_cache_.back().get();
  inv_last_.store(created, std::memory_order_release);
  return *created;
}

KernelProfile Simulator::profile(const stencil::StencilSpec& spec,
                                 const space::Setting& setting) const {
  const StencilInvariants& inv = invariants(spec);
  KernelProfile p;
  p.geometry = codegen::compute_launch_geometry(inv.geometry, setting);
  p.resources = space::estimate_resources_core(
      inv.order, inv.n_inputs, inv.n_outputs, setting,
      space::ResourceLimits{});
  CSTUNER_CHECK_MSG(!p.resources.spilled,
                    "profile() requires a non-spilled setting");

  p.occupancy = detail::memo_occupancy(arch_, p.geometry.threads_per_block(),
                                  p.resources.registers_per_thread,
                                  p.resources.shared_mem_per_block);
  if (p.occupancy.blocks_per_sm < 1) throw_unlaunchable(setting);

  p.memory = detail::memory_stage(arch_, inv, setting,
                                  p.geometry.total_blocks(), p.occupancy);
  p.compute = detail::compute_stage(arch_, inv, setting,
                                    p.geometry.total_blocks(), p.occupancy);
  p.time_ms = detail::combine_time_stage(inv, setting, p.memory, p.compute);
  assemble_metrics(arch_, inv, p);
  return p;
}

void Simulator::profile_times_impl(
    const StencilInvariants& inv, std::span<const space::Setting> settings,
    const space::ResourceUsage* precomputed_usages,
    std::span<double> out_ms) const {
  CSTUNER_CHECK_MSG(settings.size() == out_ms.size(),
                    "profile_times: output span size mismatch");
  const std::size_t n = settings.size();

  // Per-worker SoA scratch: one arena per thread, grown once to the
  // high-water mark, then alloc is a pointer bump — zero heap traffic per
  // setting in steady state. Reserve up front: alloc invalidates earlier
  // spans when it has to grow.
  thread_local Arena arena;
  arena.reset();
  arena.reserve(n * (2 * sizeof(std::int64_t) + sizeof(space::ResourceUsage) +
                     sizeof(OccupancyResult) + 64));
  auto tpb = arena.alloc<std::int64_t>(n);
  auto blocks = arena.alloc<std::int64_t>(n);
  auto occs = arena.alloc<OccupancyResult>(n);
  std::span<const space::ResourceUsage> resources;
  if (precomputed_usages != nullptr) {
    resources = {precomputed_usages, n};
  }

  for (std::size_t i = 0; i < n; ++i) {
    const codegen::LaunchGeometry g =
        codegen::compute_launch_geometry(inv.geometry, settings[i]);
    tpb[i] = g.threads_per_block();
    blocks[i] = g.total_blocks();
  }
  if (precomputed_usages == nullptr) {
    const space::ResourceLimits limits{};
    auto computed = arena.alloc<space::ResourceUsage>(n);
    for (std::size_t i = 0; i < n; ++i) {
      computed[i] = space::estimate_resources_core(
          inv.order, inv.n_inputs, inv.n_outputs, settings[i], limits);
    }
    resources = computed;
  }
  for (std::size_t i = 0; i < n; ++i) {
    CSTUNER_CHECK_MSG(!resources[i].spilled,
                      "profile() requires a non-spilled setting");
    occs[i] = detail::memo_occupancy(arch_, tpb[i],
                                resources[i].registers_per_thread,
                                resources[i].shared_mem_per_block);
    if (occs[i].blocks_per_sm < 1) throw_unlaunchable(settings[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const MemoryAnalysis memory =
        detail::memory_stage(arch_, inv, settings[i], blocks[i], occs[i]);
    const ComputeAnalysis compute =
        detail::compute_stage(arch_, inv, settings[i], blocks[i], occs[i]);
    out_ms[i] = detail::combine_time_stage(inv, settings[i], memory, compute);
  }
}

void Simulator::profile_times(const StencilInvariants& inv,
                              std::span<const space::Setting> settings,
                              std::span<double> out_ms) const {
  profile_times_impl(inv, settings, nullptr, out_ms);
}

void Simulator::profile_times(const StencilInvariants& inv,
                              std::span<const space::Setting> settings,
                              std::span<const space::ResourceUsage> usages,
                              std::span<double> out_ms) const {
  CSTUNER_CHECK_MSG(usages.size() == settings.size(),
                    "profile_times: usage span size mismatch");
  profile_times_impl(inv, settings, usages.data(), out_ms);
}

double Simulator::noisy_time_from(std::uint64_t premixed_seed,
                                  double noise_free_ms,
                                  std::uint64_t run_index) {
  Rng rng(hash_combine(premixed_seed, run_index));
  // Multiplicative lognormal-ish noise, ~1.5% sigma, clipped at 3 sigma.
  const double z = clamp(rng.normal(), -3.0, 3.0);
  return noise_free_ms * (1.0 + 0.015 * z);
}

double Simulator::noisy_time_ms(const StencilInvariants& inv,
                                std::uint64_t setting_hash,
                                double noise_free_ms,
                                std::uint64_t run_index) const {
  // Seed chain identical to the historical noise_seed(spec, setting, run):
  // hc(hc(hc(fnv(arch), fnv(spec)), setting.hash()), run) with the first
  // two links hoisted into inv.noise_seed_prefix.
  return noisy_time_from(hash_combine(inv.noise_seed_prefix, setting_hash),
                         noise_free_ms, run_index);
}

double Simulator::measure_ms(const stencil::StencilSpec& spec,
                             const space::Setting& setting,
                             std::uint64_t run_index) const {
  const StencilInvariants& inv = invariants(spec);
  const KernelProfile p = profile(spec, setting);
  return noisy_time_ms(inv, setting.hash(), p.time_ms, run_index);
}

std::array<double, kMetricCount> Simulator::measure_metrics(
    const stencil::StencilSpec& spec, const space::Setting& setting,
    std::uint64_t run_index) const {
  const StencilInvariants& inv = invariants(spec);
  KernelProfile p = profile(spec, setting);
  std::uint64_t h = hash_combine(inv.noise_seed_prefix, setting.hash());
  h = hash_combine(h, run_index ^ 0xabcdef12345ULL);
  Rng rng(h);
  for (auto& v : p.metrics) {
    const double z = clamp(rng.normal(), -3.0, 3.0);
    v *= (1.0 + 0.01 * z);
  }
  return p.metrics;
}

}  // namespace cstuner::gpusim
