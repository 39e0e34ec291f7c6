#pragma once
// Inline per-setting stages of the analytical GPU model, parameterized on
// the hoisted StencilInvariants. Both the scalar Simulator::profile() and
// the batch SoA pipeline (profile_times) execute exactly these bodies,
// which is what makes "batch bit-identical to scalar" hold by construction
// rather than by test luck (docs/performance.md).
//
// The arithmetic is a line-for-line transcription of the original
// memory_model / compute_model / simulator code with only the grouping-
// preserving invariant substitutions described in stencil_invariants.hpp;
// do not re-associate floating-point expressions here.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "gpusim/compute_model.hpp"
#include "gpusim/gpu_arch.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/stencil_invariants.hpp"
#include "space/setting.hpp"

namespace cstuner::gpusim::detail {

/// Memoized std::pow for the per-setting hot path. The bases cluster
/// heavily (occupancy fractions, small products), so a tiny direct-mapped
/// per-thread cache hits almost always; a miss calls libm and the result is
/// identical either way — scalar/batch bit-identity is unaffected. `Site`
/// separates the caches of distinct call sites (distinct exponents).
template <int Site>
inline double memo_pow(double base, double exponent) {
  struct Entry {
    std::uint64_t bits = 0;
    double value = 0.0;
  };
  thread_local std::array<Entry, 128> cache;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(base);
  if (bits == 0) return std::pow(base, exponent);  // sentinel collision
  Entry& e = cache[(bits * 0x9e3779b97f4a7c15ULL) >> 57];
  if (e.bits != bits) {
    e.bits = bits;
    e.value = std::pow(base, exponent);
  }
  return e.value;
}

/// Memoized std::log2 (same contract as memo_pow; inputs are small
/// integer-valued doubles like unroll products).
template <int Site>
inline double memo_log2(double x) {
  struct Entry {
    std::uint64_t bits = 0;
    double value = 0.0;
  };
  thread_local std::array<Entry, 128> cache;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  if (bits == 0) return std::log2(x);  // sentinel collision
  Entry& e = cache[(bits * 0x9e3779b97f4a7c15ULL) >> 57];
  if (e.bits != bits) {
    e.bits = bits;
    e.value = std::log2(x);
  }
  return e.value;
}

/// Memoized compute_occupancy. The key holds every input the function
/// reads — the block shape triple and the arch's allocation parameters —
/// so a hit returns exactly the bits the call would have produced and the
/// memo can never change a result (the occupancy CHECKs also re-fire
/// identically: an entry exists only for inputs that already passed them).
/// Settings cluster onto a few hundred (tpb, regs, smem) combinations per
/// tune, so the four integer divisions inside compute_occupancy are paid
/// per combination instead of per setting.
inline OccupancyResult memo_occupancy(const GpuArch& arch,
                                      std::int64_t threads_per_block,
                                      int registers_per_thread,
                                      std::int64_t smem_per_block) {
  struct Key {
    std::int64_t tpb = 0, smem = 0, regs_per_sm = 0, smem_per_sm = 0,
                 max_tpb = 0;
    int regs = 0, warp = 0, max_tps = 0, max_bps = 0, gran = 0;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    bool used = false;
    OccupancyResult value;
  };
  thread_local std::array<Entry, 256> cache;
  const Key key{threads_per_block,
                smem_per_block,
                arch.registers_per_sm,
                arch.smem_per_sm,
                arch.max_threads_per_block,
                registers_per_thread,
                arch.warp_size,
                arch.max_threads_per_sm,
                arch.max_blocks_per_sm,
                arch.register_alloc_granularity};
  const std::uint64_t h =
      (static_cast<std::uint64_t>(threads_per_block) +
       (static_cast<std::uint64_t>(registers_per_thread) << 11) +
       (static_cast<std::uint64_t>(smem_per_block) << 19)) *
      0x9e3779b97f4a7c15ULL;
  Entry& e = cache[h >> 56];
  if (!e.used || !(e.key == key)) {
    e.key = key;
    e.value = compute_occupancy(arch, threads_per_block, registers_per_thread,
                                smem_per_block);
    e.used = true;
  }
  return e.value;
}

/// Memory-hierarchy stage (see memory_model.cpp for the model rationale).
inline MemoryAnalysis memory_stage(const GpuArch& arch,
                                   const StencilInvariants& inv,
                                   const space::Setting& setting,
                                   std::int64_t total_blocks,
                                   const OccupancyResult& occ) {
  using namespace space;
  MemoryAnalysis m;
  const double points = inv.points;
  const bool shared = setting.flag(kUseShared);
  const bool streaming = setting.flag(kUseStreaming);
  const bool retiming = setting.flag(kUseRetiming);
  const int sd = static_cast<int>(setting.get(kSD)) - 1;

  // Coalescing (paper §II-B2).
  const double tbx = static_cast<double>(setting.get(kTBx));
  const double bmx = static_cast<double>(setting.get(kBMx));
  double coal = 0.25 + 0.75 * std::min(1.0, tbx / 32.0);
  coal /= 1.0 + 0.75 * (std::min(bmx, 4.0) - 1.0);
  if (streaming && sd == 0) coal *= 0.5;
  m.coalescing_eff = clamp(coal, 0.25 / 2.0, 1.0);

  // Per-block tile footprint (elements incl. halo), for cache modeling.
  const ParamId tb[] = {kTBx, kTBy, kTBz};
  const ParamId cm[] = {kCMx, kCMy, kCMz};
  const ParamId bm[] = {kBMx, kBMy, kBMz};
  double tile_elems = 1.0;
  double tile_interior = 1.0;
  for (int d = 0; d < 3; ++d) {
    double extent;
    if (streaming && d == sd) {
      extent = inv.window;  // sliding window of planes
      tile_interior *= 1.0;
    } else {
      const double interior = static_cast<double>(
          setting.get(tb[d]) * setting.get(cm[d]) * setting.get(bm[d]));
      extent = interior + 2.0 * inv.order;
      tile_interior *= interior;
    }
    tile_elems *= extent;
  }
  const double halo_factor = tile_elems / std::max(tile_interior, 1.0);

  // L1: does the per-SM resident working set fit?
  const double block_bytes =
      tile_elems * 8.0 * static_cast<double>(inv.n_inputs);
  const double sm_working_set =
      block_bytes * std::max(occ.blocks_per_sm, 1);
  double l1_fit = static_cast<double>(arch.l1_bytes_per_sm) /
                  std::max(sm_working_set, 1.0);
  m.l1_hit_rate = 0.80 * clamp(std::sqrt(l1_fit), 0.05, 1.0);
  m.l1_hit_rate *= 0.5 + 0.5 * m.coalescing_eff;

  // L2 plane reuse: setting-independent, hoisted into the invariants.
  m.l2_hit_rate = inv.l2_hit_rate;

  // DRAM read traffic per input array (flat hoisted tap counts).
  double dram_reads = 0.0;
  for (const auto& [array, taps] : inv.tap_counts) {
    double reuse_misses = static_cast<double>(taps - 1);
    if (shared && array < inv.staged) {
      reuse_misses *= 0.02;
    } else {
      if (streaming) reuse_misses *= 0.45;
      if (retiming && inv.high_order) reuse_misses *= 0.55;
      reuse_misses *= (1.0 - m.l1_hit_rate);
      reuse_misses *= (1.0 - m.l2_hit_rate);
    }
    const double compulsory =
        1.0 + (halo_factor - 1.0) * (1.0 - m.l2_hit_rate);
    dram_reads += points * 8.0 * (compulsory + reuse_misses);
  }
  dram_reads /= (0.25 + 0.75 * m.coalescing_eff);

  double dram_writes =
      points * 8.0 * static_cast<double>(inv.n_outputs);
  dram_writes /= (0.4 + 0.6 * m.coalescing_eff);

  m.dram_read_bytes = dram_reads;
  m.dram_write_bytes = dram_writes;

  // Achievable bandwidth under the occupancy/grid-fill latency model.
  const double hiding =
      clamp(0.14 + 1.5 * memo_pow<0>(occ.occupancy, 0.62), 0.06, 1.0);
  const double grid_fill =
      clamp(static_cast<double>(total_blocks) /
                static_cast<double>(arch.num_sms),
            0.05, 1.0);
  m.achieved_dram_gbps = arch.dram_gbps * hiding * std::sqrt(grid_fill);

  const double dram_time_ms =
      (dram_reads + dram_writes) / (m.achieved_dram_gbps * 1e6);
  const double l2_traffic =
      (dram_reads + dram_writes) / std::max(1.0 - m.l2_hit_rate, 0.25);
  const double l2_time_ms = l2_traffic / (arch.l2_gbps * hiding * 1e6);
  m.mem_time_ms = std::max(dram_time_ms, l2_time_ms);
  return m;
}

/// Compute-side stage (see compute_model.cpp for the model rationale).
inline ComputeAnalysis compute_stage(const GpuArch& arch,
                                     const StencilInvariants& inv,
                                     const space::Setting& setting,
                                     std::int64_t total_blocks,
                                     const OccupancyResult& occ) {
  using namespace space;
  ComputeAnalysis c;
  const bool streaming = setting.flag(kUseStreaming);
  const bool prefetch = setting.flag(kUsePrefetching);
  const bool shared = setting.flag(kUseShared);
  const bool constant = setting.flag(kUseConstant);
  const bool retiming = setting.flag(kUseRetiming);

  // ILP from unrolling and merged accumulators (§II-B1/B2).
  const double unroll = static_cast<double>(
      setting.get(kUFx) * setting.get(kUFy) * setting.get(kUFz));
  const double merged = static_cast<double>(setting.points_per_thread());
  c.ilp = 1.0 + 0.22 * memo_log2<0>(unroll) + 0.08 * memo_log2<1>(merged);
  c.ilp = clamp(c.ilp, 1.0, 1.9);

  c.instr_overhead = 1.0 + 0.22 / std::sqrt(unroll);

  // Divergence: warp lanes idle in partial tiles at the grid boundary.
  double lane_eff = 1.0;
  const ParamId tb[] = {kTBx, kTBy, kTBz};
  const ParamId cm[] = {kCMx, kCMy, kCMz};
  const ParamId bm[] = {kBMx, kBMy, kBMz};
  const int sd = static_cast<int>(setting.get(kSD)) - 1;
  for (int d = 0; d < 3; ++d) {
    std::int64_t coverage;
    if (streaming && d == sd) {
      coverage = setting.get(kSB);
    } else {
      coverage = setting.get(tb[d]) * setting.get(cm[d]) * setting.get(bm[d]);
    }
    const std::int64_t extent = inv.geometry.extent[d];
    const std::int64_t covered =
        ceil_div<std::int64_t>(extent, coverage) * coverage;
    lane_eff *= static_cast<double>(extent) / static_cast<double>(covered);
  }
  c.divergence_eff = clamp(lane_eff, 0.3, 1.0);

  // Latency hiding of the FP64 pipeline.
  const double hiding = clamp(
      0.12 + 1.6 * memo_pow<1>(occ.occupancy * c.ilp, 0.65), 0.05, 1.0);

  double eff = hiding * c.divergence_eff / c.instr_overhead;

  if (constant) {
    eff *= inv.many_taps ? 1.06 : 0.97;
  }
  if (retiming) {
    eff *= inv.high_order ? 1.07 : 0.95;
  }
  if (shared) eff *= 0.94;

  // Tail quantization: the last wave of blocks underfills the machine.
  const double slots = static_cast<double>(arch.num_sms) *
                       std::max(occ.blocks_per_sm, 1);
  const double blocks = static_cast<double>(total_blocks);
  const double waves = std::ceil(blocks / slots);
  const double fill = blocks / (waves * slots);
  eff *= clamp(fill, 0.05, 1.0);

  c.fp64_eff = clamp(eff, 1e-4, 1.0);
  c.flop_time_ms = inv.total_flops / (arch.fp64_gflops * c.fp64_eff) / 1e6;

  // Barrier cost; prefetching overlaps it (§II-B3).
  if (shared) {
    double syncs_per_block = 2.0;
    if (streaming) {
      syncs_per_block = static_cast<double>(setting.get(kSB)) + 1.0;
    }
    double sync_us = 0.9 * syncs_per_block * waves /
                     std::sqrt(static_cast<double>(
                         std::max(occ.blocks_per_sm, 1)));
    if (prefetch) sync_us *= 0.45;
    c.sync_time_ms = sync_us / 1e3;
  } else if (streaming && prefetch) {
    c.sync_time_ms = 0.0;
  }
  return c;
}

/// Temporal-blocking adjustment and compute/memory overlap: combines the
/// stage analyses into the noise-free time per time step (simulator.cpp).
inline double combine_time_stage(const StencilInvariants& inv,
                                 const space::Setting& setting,
                                 const MemoryAnalysis& memory,
                                 const ComputeAnalysis& compute) {
  const double tf = static_cast<double>(setting.get(space::kTemporal));
  double flop_time = compute.flop_time_ms;
  double sync_time = compute.sync_time_ms;
  double mem_time = memory.mem_time_ms;
  if (tf > 1.0) {
    // Overlapped tiles recompute halo wavefronts per fused step...
    const double redundancy = 1.0 + inv.temporal_flop_coeff * (tf - 1.0);
    flop_time *= tf * redundancy;
    sync_time *= tf;
    // ...and the halo planes of deeper wavefronts are re-fetched.
    mem_time *= 1.0 + inv.temporal_mem_coeff * (tf - 1.0);
  }

  // Compute and memory pipelines overlap; the longer one dominates and a
  // fraction of the shorter one leaks past the overlap.
  const double longest = std::max(flop_time, mem_time);
  const double shortest = std::min(flop_time, mem_time);
  double time = longest + 0.18 * shortest;
  time += sync_time;
  time += inv.launch_ms;
  return time / tf;
}

}  // namespace cstuner::gpusim::detail
