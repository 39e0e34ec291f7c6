#pragma once
// The evaluation engine every auto-tuner drives. It owns the
// (setting -> measured outcome) oracle, a result cache, the best-so-far
// state, and a *virtual clock* that charges each evaluation what it would
// cost on real hardware: per-variant compile time plus timing runs plus
// launch overhead. Iso-time comparisons (Figs. 9-11) read this clock.
//
// Evaluations return EvalResult, not bare doubles: real tuning runs lose a
// large fraction of candidates to compile failures, crashes, hangs and
// flaky profiler readings, and the engine absorbs those through a
// deterministic fault pipeline (docs/fault-tolerance.md):
//   - a seedable FaultInjector decides, purely from (seed, setting,
//     attempt), whether an attempt compiles, crashes, hangs or misreads;
//   - transient faults are retried with exponential backoff charged to the
//     virtual clock, bounded by RetryPolicy (attempts, per-eval deadline,
//     per-tune fault budget);
//   - permanent failures are cached and quarantined immediately; settings
//     that repeatedly exhaust their retries join the quarantine list and
//     are answered with a penalty result without burning measurements;
//   - an optional Checkpoint journals every committed evaluation and
//     snapshots state periodically; on resume, journaled measurements are
//     replayed so the continuation is bit-identical to an unkilled run.
//
// The engine is thread-safe and batch-parallel (docs/threading.md):
//   - the result cache is one flat table under one mutex, taken once per
//     probe chunk and once per batch commit, so it never sees per-setting
//     lock traffic;
//   - the virtual clock accumulates integer picosecond ticks in an atomic.
//     Integer addition is associative, so the clock reads bit-identically
//     no matter which thread charged which evaluation first;
//   - best-so-far and the convergence trace update under one small result
//     mutex, keeping the trace monotone under concurrency;
//   - evaluate_batch() measures a whole batch across the thread pool, then
//     commits results in input order, so a batch is bit-identical to the
//     same calls made serially — with 1 worker or 16;
//   - fault decisions are pure functions of the setting key, and fault
//     charges for one setting are capped at the quarantine threshold, so
//     totals stay commit-order independent even across concurrent batches.
// Measurement noise keys off hash_combine(run_salt_, setting.hash()), which
// is evaluation-order independent; that is what makes the parallel engine
// deterministic at all.

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/simulator.hpp"
#include "space/search_space.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/fault.hpp"
#include "tuner/trace.hpp"

namespace cstuner::tuner {

struct EvalCosts {
  double compile_s = 0.25;        ///< nvcc cost per new kernel variant
  int runs_per_eval = 3;          ///< timing repetitions per variant
  double launch_overhead_s = 2e-3;
};

class Evaluator {
 public:
  Evaluator(const gpusim::Simulator& simulator,
            const space::SearchSpace& space, EvalCosts costs = {},
            std::uint64_t seed = 1, ThreadPool* pool = &ThreadPool::global());
  /// Detaches this engine's virtual clock from the span tracer.
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// evaluate_batch over the one setting: the full outcome (status, time,
  /// attempts). Charges the virtual clock on first evaluation; repeats are
  /// served from cache (successes and permanent failures) or from the
  /// quarantine list for free.
  EvalResult evaluate_result(const space::Setting& setting);

  /// Convenience wrapper: evaluate_result().time_or_inf(). Returns infinity
  /// for invalid, failed and quarantined settings.
  double evaluate(const space::Setting& setting);

  /// Evaluates a batch of candidates, fanning the uncached measurements
  /// across the thread pool in fixed-size chunks. Each chunk runs the pure
  /// decision pipeline per slot, then profiles every slot that reached a
  /// measurement through the simulator's batch oracle (profile_times) and
  /// applies the per-run noise. Chunk boundaries depend only on the batch
  /// size, and results (cache, clock, best, trace) are committed in input
  /// order afterwards, so the outcome is bit-identical to evaluating the
  /// batch serially, for any worker count (docs/threading.md,
  /// docs/performance.md).
  /// Exception-safe: if a slot throws, every other slot is still probed and
  /// committed (cache, clock, journal) before the lowest-index exception
  /// propagates — in-flight work is drained, not leaked.
  /// This is the only gate into the engine: every candidate, from every
  /// tuner, reaches its verdict here. A constraint-invalid setting scores
  /// infinity and is never measured, cached, charged, journaled or traced,
  /// so callers need no validity pre-filter of their own.
  std::vector<EvalResult> evaluate_batch(
      std::span<const space::Setting> settings);

  /// Sizes the result cache for an expected number of unique settings
  /// (typically the sampled universe size), so the flat table never
  /// rehashes mid-tune. Call before tuning; safe to skip (the table grows
  /// on demand) and to call concurrently with nothing in flight.
  void reserve_cache(std::size_t expected_unique);

  /// Marks the end of one tuner iteration in the trace (iso-iteration
  /// data); flushes the checkpoint journal and snapshots periodically.
  void mark_iteration();

  double virtual_time_s() const {
    return static_cast<double>(
               virtual_time_ticks_.load(std::memory_order_acquire)) /
           kTicksPerSecond;
  }
  std::size_t unique_evaluations() const {
    return unique_evals_.load(std::memory_order_acquire);
  }
  std::size_t iterations() const {
    return iterations_.load(std::memory_order_acquire);
  }

  double best_time_ms() const;
  /// Stable only while no evaluation is in flight (read it after a batch or
  /// a tuning run, not during one).
  const std::optional<space::Setting>& best_setting() const {
    return best_setting_;
  }

  const ConvergenceTrace& trace() const { return trace_; }

  const space::SearchSpace& space() const { return space_; }
  const gpusim::Simulator& simulator() const { return simulator_; }

  /// Worker pool used by evaluate_batch; nullptr runs batches inline.
  ThreadPool* thread_pool() const { return pool_; }
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // --- Fault pipeline -----------------------------------------------------

  /// Arms fault injection. `scope` (typically the stencil name) salts the
  /// fault decisions so different stencils fail independently under the
  /// same seed. A config with no rates disarms injection.
  void set_fault_injection(const gpusim::FaultConfig& config,
                           const std::string& scope);
  /// The armed injector (nullptr when injection is off) — shared with the
  /// offline dataset collection so it sees the same fault pattern.
  const FaultInjector* fault_injector() const {
    return injector_.has_value() ? &*injector_ : nullptr;
  }

  /// Schedules deterministic island deaths for the distributed GA
  /// ("kill rank r at generation g"). Arms a zero-rate injector when fault
  /// injection is otherwise off, so a kill plan works without eval faults;
  /// when injection is armed, call set_fault_injection first (it resets
  /// the injector, dropping any plan installed earlier).
  void set_kill_plan(std::vector<RankKill> plan, const std::string& scope);

  void set_retry_policy(const RetryPolicy& policy);

  /// Snapshot of the failure counters (fills fault_overhead_s from the
  /// tick-exact accumulator).
  FaultStats fault_stats() const;

  /// True when the setting key sits on the quarantine list; searches use
  /// this to skip repeat offenders without burning batch slots.
  bool is_quarantined(std::uint64_t setting_key) const;
  /// Quarantined keys in sorted order (deterministic for snapshots/tests).
  std::vector<std::uint64_t> quarantined_keys() const;

  // --- Cooperative cancellation / deadlines -------------------------------

  /// Arms cooperative cancellation: while `flag` (owned by the caller —
  /// typically a serve session; never mutated here) reads true, evaluate /
  /// evaluate_batch throw CancelledError *before* touching any shared
  /// state. The cache, clock, quarantine and statistics are left exactly as
  /// the last completed call left them, so other sessions sharing this
  /// engine are unaffected and the cancelled run can resume later. A batch
  /// that has already started always commits whole (the cancellation
  /// granularity is one batch). nullptr disarms.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// Per-request deadline charged to the virtual clock: once
  /// virtual_time_s() has reached `seconds`, the next evaluation throws
  /// DeadlineError. Because the comparison is against the deterministic
  /// virtual clock — not wall time — the expiry point is bit-identical
  /// across worker counts and across checkpoint/resume cycles. Infinity
  /// (the default) disables.
  void set_virtual_deadline(double seconds) { virtual_deadline_s_ = seconds; }

  // --- Checkpoint/resume --------------------------------------------------

  /// Attaches a checkpoint (non-owning; may be nullptr to detach). Journal
  /// entries already loaded into the checkpoint replay future evaluations
  /// of the same settings; call before tuning starts.
  void set_checkpoint(Checkpoint* checkpoint);
  Checkpoint* checkpoint() const { return checkpoint_; }

  /// Serializes the mutable engine state (stats, quarantine, counters) as
  /// one JSON object — the "evaluator" half of a snapshot.
  std::string serialize_state() const;

  /// Debug mode: before the first (cache-miss) measurement of a valid
  /// setting, run the static analyzer over the kernel the codegen layer
  /// would emit for it and throw ConstraintError when any pass reports an
  /// error. Catches codegen/constraint drift at the point of use instead of
  /// ten thousand evaluations later. Off by default (it generates and parses
  /// the kernel source per unique setting).
  void set_debug_precheck(bool enabled) { debug_precheck_ = enabled; }

 private:
  /// Virtual-clock resolution: 1 tick = 1 ps. Costs round to a tick, so
  /// ~2^62 ps (~50 virtual days) fit before overflow — far beyond any run.
  static constexpr double kTicksPerSecond = 1e12;
  /// evaluate_batch probe granularity. Chunking is by batch position only —
  /// never by worker count — so the chunk a slot lands in (and therefore
  /// every bit of the result) is identical with 0 or 16 workers.
  static constexpr std::size_t kProbeChunk = 64;

  /// Outcome of the pure (parallel-phase) half of one evaluation.
  struct Probe {
    enum class State : std::uint8_t {
      kCached,      ///< served from the result cache; no commit work
      kQuarantine,  ///< quarantine list answered; commit counts the hit
      kInvalid,     ///< constraint-invalid; never measured, never charged
      kMeasured,    ///< measured (or replayed); commit charges and caches
    };
    State state = State::kInvalid;
    EvalResult result;
    std::int64_t overhead_ticks = 0;  ///< fault overhead of the ladder
    bool replayed = false;            ///< served from the resume journal
    /// The ladder landed on a real measurement: result.time_ms is not yet
    /// filled in; the batch oracle supplies the noise-free profile time and
    /// finish_measure() applies the run noise.
    bool needs_time = false;
    /// Resource estimate the validity check handed back; reusable by the
    /// batch oracle when the space's limits are the defaults the simulator
    /// assumes (usage_reusable_).
    space::ResourceUsage usage;
  };

  /// Batch-local aggregation of the clean-success commit charges. Clock
  /// ticks and counters are integers, so summing them locally and flushing
  /// once per batch gives bit-identical totals to per-eval fetch_adds —
  /// the flush just happens before anything (the convergence trace) reads
  /// them.
  struct CommitTotals {
    std::int64_t virtual_ticks = 0;
    std::uint64_t evals = 0;
  };

  /// Throws CancelledError/DeadlineError at the evaluation entry points;
  /// mutates nothing.
  void check_cancelled() const;
  /// Successes and permanent failures are cached; transient-class
  /// failures are retried on a later evaluation instead.
  static bool is_cacheable(const EvalResult& result) {
    return result.ok() || result.status == EvalStatus::kCompileFail ||
           result.status == EvalStatus::kCrash;
  }
  /// Debug-mode static analysis of the kernel for `setting`; throws
  /// ConstraintError when the analyzer reports an error-severity diagnostic.
  void precheck(const space::Setting& setting) const;
  /// Pure measurement from the noise-free profile time: mean of
  /// runs_per_eval deterministic noise draws (plus the injector's extra
  /// per-run noise when armed). Bit-identical to the historical
  /// measure-per-run path because the simulator's noise chain is seeded
  /// from (arch, stencil, key, run) only.
  double noisy_mean_ms(std::uint64_t key, double noise_free_ms) const;
  /// Fills probe.result.time_ms for a needs_time probe.
  void finish_measure(std::uint64_t key, double noise_free_ms,
                      Probe& probe) const;
  /// The retry ladder: walks attempts through the fault oracle, accruing
  /// backoff/deadline overhead, until a measurement lands (needs_time set;
  /// the caller fills the time from the batch oracle) or attempts run out.
  /// Pure — safe to run in the parallel phase.
  Probe run_attempt_ladder(std::uint64_t key, int max_attempts) const;
  /// Pure phase-1 work for one setting whose cache probe missed (the batch
  /// resolves the cache under the cache lock): quarantine probe,
  /// validity, replay lookup, then the attempt ladder.
  Probe probe_uncached(std::uint64_t key, const space::Setting& setting,
                       int max_attempts);
  /// Phase-2 commit for one probed setting whose cache step has run:
  /// quarantine accounting (charges capped at the quarantine threshold per
  /// key, so clock totals are commit-order independent), clock charge,
  /// best/trace update, journal append. Runs in input order within a batch.
  /// The clean-success clock/counter charges accumulate in `totals`
  /// instead of hitting the shared atomics per eval; any path that reads
  /// the shared state (trace/best updates) flushes first.
  EvalResult commit_one(std::uint64_t key, const space::Setting& setting,
                        const Probe& probe, CommitTotals& totals);
  /// Adds the accumulated totals to the shared clock/counters and resets
  /// them.
  void flush_commit_totals(CommitTotals& totals);
  /// Retry allowance for the next evaluation: collapses to one attempt once
  /// the per-tune fault budget is spent.
  int effective_max_attempts() const;

  /// Rounds a cost to whole clock ticks (all charges are tick-quantized so
  /// accumulation order cannot change the total).
  static std::int64_t to_ticks(double seconds);

  const gpusim::Simulator& simulator_;
  const space::SearchSpace& space_;
  /// Hoisted per-(arch, stencil) model constants — owned by the simulator's
  /// invariants cache, resolved once here so the per-setting hot path never
  /// re-fingerprints the spec.
  const gpusim::StencilInvariants* inv_;
  EvalCosts costs_;
  std::uint64_t run_salt_;
  ThreadPool* pool_;
  /// The space's resource limits equal the defaults the simulator profiles
  /// under, so the validity check's resource estimate is bit-identical to
  /// the one the oracle would recompute — hand it over instead.
  bool usage_reusable_ = false;
  bool debug_precheck_ = false;

  std::optional<FaultInjector> injector_;
  RetryPolicy policy_;
  Checkpoint* checkpoint_ = nullptr;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  double virtual_deadline_s_ = std::numeric_limits<double>::infinity();

  std::mutex cache_mutex_;
  /// Open-addressing flat table (common/flat_hash.hpp): setting keys are
  /// already avalanched 64-bit hashes, so identity hashing plus linear
  /// probing beats unordered_map's node allocations on the hot path.
  FlatHashMap<EvalResult> cache_;
  std::atomic<std::int64_t> virtual_time_ticks_{0};
  std::atomic<std::size_t> unique_evals_{0};
  std::atomic<std::size_t> iterations_{0};
  std::atomic<std::int64_t> fault_overhead_ticks_{0};

  mutable std::mutex fault_mutex_;  // guards the three fields below
  FaultStats stats_;
  std::unordered_map<std::uint64_t, int> fail_counts_;
  std::unordered_set<std::uint64_t> quarantine_;
  /// quarantine_.size(), readable without the fault mutex. Zero (the
  /// fault-free steady state) lets probe_uncached skip the quarantine lock
  /// entirely; written only while holding fault_mutex_.
  std::atomic<std::size_t> quarantine_count_{0};

  mutable std::mutex result_mutex_;  // guards the three fields below
  double best_time_ms_ = std::numeric_limits<double>::infinity();
  std::optional<space::Setting> best_setting_;
  ConvergenceTrace trace_;
  /// Bit pattern of best_time_ms_, readable without the result mutex.
  /// commit_one consults it to skip the lock for results that cannot
  /// improve the best; written only while holding result_mutex_.
  std::atomic<std::uint64_t> best_bits_{0x7ff0000000000000ULL};  // +inf
};

/// Stop condition shared by all tuners: iteration cap (iso-iteration mode)
/// and/or virtual-time budget (iso-time mode).
struct StopCriteria {
  std::size_t max_iterations = std::numeric_limits<std::size_t>::max();
  double max_virtual_seconds = std::numeric_limits<double>::infinity();

  bool reached(const Evaluator& eval) const {
    return eval.iterations() >= max_iterations ||
           eval.virtual_time_s() >= max_virtual_seconds;
  }
};

/// Abstract auto-tuner: csTuner and the three baselines implement this.
class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual std::string name() const = 0;
  /// Runs until the stop criteria are met or the tuner exhausts its
  /// candidate pool (the paper's "evaluated completely" case in Fig. 8).
  virtual void tune(Evaluator& evaluator, const StopCriteria& stop) = 0;
};

}  // namespace cstuner::tuner
