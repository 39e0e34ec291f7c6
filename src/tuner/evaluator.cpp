#include "tuner/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <exception>

#include "analysis/analyzer.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace cstuner::tuner {

Evaluator::Evaluator(const gpusim::Simulator& simulator,
                     const space::SearchSpace& space, EvalCosts costs,
                     std::uint64_t seed, ThreadPool* pool)
    : simulator_(simulator),
      space_(space),
      inv_(&simulator.invariants(space.spec())),
      costs_(costs),
      run_salt_(hash_combine(seed, 0x4556414cULL)),
      pool_(pool),
      usage_reusable_(space.checker().limits() == space::ResourceLimits{}) {
  CSTUNER_CHECK_MSG(costs_.runs_per_eval > 0,
                    "EvalCosts.runs_per_eval must be positive");
  // The most recently constructed evaluator owns the tracer's virtual
  // clock: spans opened while this engine runs attribute its virtual time
  // (benches and tests construct evaluators strictly sequentially).
  obs::Tracer::global().set_virtual_clock(&virtual_time_ticks_);
}

Evaluator::~Evaluator() {
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.virtual_clock() == &virtual_time_ticks_) {
    tracer.set_virtual_clock(nullptr);
  }
}

std::int64_t Evaluator::to_ticks(double seconds) {
  return std::llround(seconds * kTicksPerSecond);
}

void Evaluator::set_fault_injection(const gpusim::FaultConfig& config,
                                    const std::string& scope) {
  if (config.any()) {
    injector_.emplace(config, scope);
  } else {
    injector_.reset();
  }
}

void Evaluator::set_kill_plan(std::vector<RankKill> plan,
                              const std::string& scope) {
  if (plan.empty()) return;
  if (!injector_.has_value()) {
    // Rank kills without eval faults: a zero-rate injector carries the
    // plan and never injects a measurement failure.
    injector_.emplace(gpusim::FaultConfig{}, scope);
  }
  injector_->set_kill_plan(std::move(plan));
}

void Evaluator::set_retry_policy(const RetryPolicy& policy) {
  CSTUNER_CHECK_MSG(policy.max_attempts >= 1,
                    "RetryPolicy.max_attempts must be >= 1");
  CSTUNER_CHECK_MSG(policy.quarantine_threshold >= 1,
                    "RetryPolicy.quarantine_threshold must be >= 1");
  policy_ = policy;
}

void Evaluator::set_checkpoint(Checkpoint* checkpoint) {
  checkpoint_ = checkpoint;
}

void Evaluator::count_cache_hits(std::size_t shard_idx, std::uint64_t hits) {
#if !defined(CSTUNER_OBS_DISABLED)
  // Per-shard hit counters expose cache skew (a hot shard means hash
  // clustering); the counter references resolve once, so the hit path
  // never builds a metric name.
  static const auto shard_hits = [] {
    std::array<obs::Counter*, kCacheShards> counters{};
    std::string name = "evaluator.cache_hits.shard00";
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      name[name.size() - 2] = static_cast<char>('0' + s / 10);
      name[name.size() - 1] = static_cast<char>('0' + s % 10);
      counters[s] = &obs::metrics().counter(name);
    }
    return counters;
  }();
  shard_hits[shard_idx]->add(hits);
  CSTUNER_OBS_COUNT("evaluator.cache_hits", hits);
#else
  (void)shard_idx;
  (void)hits;
#endif
}

void Evaluator::reserve_cache(std::size_t expected_unique) {
  // Spread over the shards with headroom for hash skew; each shard table
  // rounds up to a power of two under its 7/8 load ceiling.
  const std::size_t per_shard = expected_unique / kCacheShards + 8;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.reserve(per_shard);
  }
}

void Evaluator::precheck(const space::Setting& setting) const {
  analysis::AnalyzerOptions options;
  options.arch = &simulator_.arch();
  const analysis::Report report =
      analysis::analyze_setting(space_.spec(), setting, options);
  if (report.error_count() > 0) {
    throw ConstraintError("debug precheck failed for setting " +
                          setting.to_string() + "\n" + report.to_string());
  }
}

double Evaluator::noisy_mean_ms(std::uint64_t key,
                                double noise_free_ms) const {
  // (The "evaluator.measure_runs" counter is bumped once per chunk by
  // evaluate_batch, not here per eval.)
  // The evaluator key IS setting.hash() (evaluate_result), so the noise
  // seeds below reproduce the historical measure_ms(spec, setting, run)
  // chain bit for bit — the profile is just no longer recomputed per run.
  const std::uint64_t base_run = hash_combine(run_salt_, key);
  const std::uint64_t premixed = hash_combine(inv_->noise_seed_prefix, key);
  double sum_ms = 0.0;
  for (int run = 0; run < costs_.runs_per_eval; ++run) {
    const auto run_index = base_run + static_cast<std::uint64_t>(run);
    double ms =
        gpusim::Simulator::noisy_time_from(premixed, noise_free_ms, run_index);
    if (injector_.has_value()) {
      ms *= injector_->noise_factor(key, static_cast<std::uint64_t>(run));
    }
    sum_ms += ms;
  }
  return sum_ms / costs_.runs_per_eval;
}

void Evaluator::finish_measure(std::uint64_t key, double noise_free_ms,
                               Probe& probe) const {
  probe.result.time_ms = noisy_mean_ms(key, noise_free_ms);
  probe.needs_time = false;
}

int Evaluator::effective_max_attempts() const {
  if (!std::isfinite(policy_.fault_budget_s)) return policy_.max_attempts;
  const auto spent = fault_overhead_ticks_.load(std::memory_order_acquire);
  // Budget spent: fail fast on the first faulty attempt instead of
  // retrying. (A finite budget trades bit-identical replay for a bound on
  // time lost to faults; see RetryPolicy.)
  return spent >= to_ticks(policy_.fault_budget_s) ? 1
                                                   : policy_.max_attempts;
}

Evaluator::Probe Evaluator::run_attempt_ladder(std::uint64_t key,
                                               int max_attempts) const {
  Probe probe;
  probe.state = Probe::State::kMeasured;

  if (!injector_.has_value()) {
    probe.result = {EvalStatus::kOk, 0.0, 1};
    probe.needs_time = true;
    return probe;
  }

  std::int64_t ticks = 0;
  double backoff_s = policy_.backoff_initial_s;
  EvalStatus last_failure = EvalStatus::kTransient;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ticks += to_ticks(backoff_s);
      backoff_s *= policy_.backoff_multiplier;
    }
    const gpusim::FaultKind kind = injector_->decide(key, attempt);
    if (kind == gpusim::FaultKind::kNone) {
      probe.result = {EvalStatus::kOk, 0.0,
                      static_cast<std::uint8_t>(attempt)};
      probe.needs_time = true;
      probe.overhead_ticks = ticks;
      return probe;
    }
    switch (kind) {
      case gpusim::FaultKind::kCompileFail:
        // nvcc burned its compile time and rejected the variant; retrying
        // can never help (the permanent draw repeats on every attempt).
        probe.result = {EvalStatus::kCompileFail,
                        std::numeric_limits<double>::infinity(),
                        static_cast<std::uint8_t>(attempt)};
        probe.overhead_ticks = ticks + to_ticks(costs_.compile_s);
        return probe;
      case gpusim::FaultKind::kCrash:
        // Compiled, launched, aborted. Also permanent.
        probe.result = {EvalStatus::kCrash,
                        std::numeric_limits<double>::infinity(),
                        static_cast<std::uint8_t>(attempt)};
        probe.overhead_ticks =
            ticks + to_ticks(costs_.compile_s + costs_.launch_overhead_s);
        return probe;
      case gpusim::FaultKind::kTimeout:
        // The kernel hung until the watchdog deadline; the full deadline is
        // lost virtual time. Transient: the retry rerolls.
        ticks += to_ticks(policy_.eval_deadline_s);
        last_failure = EvalStatus::kTimeout;
        break;
      case gpusim::FaultKind::kTransient:
        // The runs launched but the profiler readings were garbage; the
        // launches are lost.
        ticks += to_ticks(costs_.runs_per_eval * costs_.launch_overhead_s);
        last_failure = EvalStatus::kTransient;
        break;
      case gpusim::FaultKind::kNone:
        break;  // unreachable; handled above
    }
  }
  // Retries exhausted on transient-class faults. The compile still
  // happened once; charge it here because the normal (success) cost path
  // never runs for a failed evaluation.
  probe.result = {last_failure, std::numeric_limits<double>::infinity(),
                  static_cast<std::uint8_t>(max_attempts)};
  probe.overhead_ticks = ticks + to_ticks(costs_.compile_s);
  return probe;
}

Evaluator::Probe Evaluator::probe_uncached(std::uint64_t key,
                                           const space::Setting& setting,
                                           int max_attempts) {
  Probe probe;
  // Fault-free tunes never quarantine anything; the relaxed count check
  // keeps the hot path off the fault mutex in that (common) case.
  if (quarantine_count_.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (quarantine_.contains(key)) {
      probe.state = Probe::State::kQuarantine;
      probe.result = {EvalStatus::kQuarantined,
                      std::numeric_limits<double>::infinity(), 0};
      return probe;
    }
  }
  if (!space_.is_valid(setting, &probe.usage)) {
    probe.state = Probe::State::kInvalid;
    probe.result = {EvalStatus::kInvalid,
                    std::numeric_limits<double>::infinity(), 0};
    return probe;
  }
  if (debug_precheck_) precheck(setting);
  if (checkpoint_ != nullptr) {
    const auto& replay = checkpoint_->replay();
    if (const auto it = replay.find(key); it != replay.end()) {
      probe.state = Probe::State::kMeasured;
      probe.result = it->second.to_result();
      probe.overhead_ticks = it->second.overhead_ticks;
      probe.replayed = true;
      return probe;
    }
  }
  Probe measured = run_attempt_ladder(key, max_attempts);
  measured.usage = probe.usage;  // keep the validity check's estimate
  return measured;
}

EvalResult Evaluator::commit_one(std::uint64_t key,
                                 const space::Setting& setting,
                                 const Probe& probe, CommitTotals& totals) {
  switch (probe.state) {
    case Probe::State::kCached:
    case Probe::State::kInvalid:
      return probe.result;
    case Probe::State::kQuarantine: {
      CSTUNER_OBS_COUNT("evaluator.quarantine_hits", 1);
      std::lock_guard<std::mutex> fault_lock(fault_mutex_);
      ++stats_.quarantine_hits;
      std::lock_guard<std::mutex> result_lock(result_mutex_);
      trace_.record_event(key, EvalStatus::kQuarantined, 0);
      return probe.result;
    }
    case Probe::State::kMeasured:
      break;
  }

  const EvalResult& result = probe.result;

  // evaluate_batch's cache step already ran: this slot's result is cached
  // if cacheable, and no earlier committer owns the key.
  const bool cacheable = is_cacheable(result);

  // Quarantine accounting under the fault mutex. Charges for one key are
  // capped at the quarantine threshold: once the key is quarantined (by an
  // earlier commit in this batch or by a concurrent batch), this commit
  // degrades to a quarantine hit — matching what a serial re-evaluation
  // would have seen at probe time, and keeping clock/stat totals
  // independent of commit interleaving.
  // A clean first-attempt success touches none of the fault state (no
  // failure counters, no retries, no quarantine, no replay credit) — the
  // overwhelmingly common commit skips the fault mutex altogether.
  const bool clean_success =
      result.ok() && result.attempts <= 1 && !probe.replayed;
  bool quarantined_now = false;
  if (!clean_success) {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (!cacheable && quarantine_.contains(key)) {
      CSTUNER_OBS_COUNT("evaluator.quarantine_hits", 1);
      ++stats_.quarantine_hits;
      EvalResult hit{EvalStatus::kQuarantined,
                     std::numeric_limits<double>::infinity(), 0};
      std::lock_guard<std::mutex> result_lock(result_mutex_);
      trace_.record_event(key, EvalStatus::kQuarantined, 0);
      return hit;
    }
    if (result.failed()) {
      switch (result.status) {
        case EvalStatus::kCompileFail:
          ++stats_.compile_fail;
          break;
        case EvalStatus::kCrash:
          ++stats_.crash;
          break;
        case EvalStatus::kTimeout:
          ++stats_.timeout;
          break;
        case EvalStatus::kTransient:
          ++stats_.transient;
          break;
        default:
          break;
      }
      if (cacheable) {
        // Permanent failure: quarantine immediately.
        quarantined_now = quarantine_.insert(key).second;
      } else {
        const int count = ++fail_counts_[key];
        if (count >= policy_.quarantine_threshold) {
          quarantined_now = quarantine_.insert(key).second;
        }
      }
      if (quarantined_now) {
        ++stats_.quarantined_settings;
        quarantine_count_.store(quarantine_.size(), std::memory_order_release);
      }
    }
    stats_.retries += result.attempts > 1 ? result.attempts - 1u : 0u;
    if (result.ok() && result.attempts > 1) ++stats_.recovered;
    if (probe.replayed) ++stats_.replayed;
  }
  if (quarantined_now) CSTUNER_OBS_COUNT("evaluator.quarantined", 1);
  if (result.failed()) CSTUNER_OBS_COUNT("evaluator.failed", 1);
  if (result.attempts > 1) {
    CSTUNER_OBS_COUNT("evaluator.retries", result.attempts - 1u);
  }
  if (probe.replayed) CSTUNER_OBS_COUNT("evaluator.replayed", 1);

  // Clock charges: fault overhead always; the normal compile+runs cost only
  // for a successful measurement. Both are tick-quantized before the atomic
  // add, so the total is independent of commit order across threads.
  if (probe.overhead_ticks != 0) {
    virtual_time_ticks_.fetch_add(probe.overhead_ticks,
                                  std::memory_order_acq_rel);
    fault_overhead_ticks_.fetch_add(probe.overhead_ticks,
                                    std::memory_order_acq_rel);
  }
  if (result.ok()) {
    // Tick-quantized before accumulation: integer sums are associative, so
    // the flushed total is bit-identical to per-eval charging.
    totals.virtual_ticks += success_cost_ticks(result.time_ms);
    ++totals.evals;
  }

  // Journal the committed outcome (unless it *came* from the journal).
  if (checkpoint_ != nullptr && !probe.replayed) {
    JournalEntry entry;
    entry.key = key;
    entry.status = result.status;
    entry.time_bits = std::bit_cast<std::uint64_t>(result.time_ms);
    entry.attempts = result.attempts;
    entry.overhead_ticks = probe.overhead_ticks;
    checkpoint_->append(entry);
  }

  // Nothing to trace and no chance of a new best: skip the result mutex.
  // best_bits_ mirrors best_time_ms_ (both written under the lock), so a
  // stale read can only be *larger* than the true best — the pessimistic
  // side, which falls through to the locked re-check below.
  if (clean_success &&
      !(result.time_ms <
        std::bit_cast<double>(best_bits_.load(std::memory_order_acquire)))) {
    return result;
  }

  // The trace record below reads the shared clock/counters; flush the
  // batch-local charges first so it sees exactly what per-eval charging
  // would have shown.
  flush_commit_totals(totals);

  std::lock_guard<std::mutex> lock(result_mutex_);
  if (result.failed()) {
    trace_.record_event(key, result.status, result.attempts);
  } else if (result.attempts > 1) {
    trace_.record_event(key, EvalStatus::kOk, result.attempts);
  }
  if (result.ok() && result.time_ms < best_time_ms_) {
    best_time_ms_ = result.time_ms;
    best_setting_ = setting;
    best_bits_.store(std::bit_cast<std::uint64_t>(best_time_ms_),
                     std::memory_order_release);
    trace_.record(iterations(), unique_evaluations(), virtual_time_s(),
                  best_time_ms_);
  }
  return result;
}

void Evaluator::flush_commit_totals(CommitTotals& totals) {
  if (totals.virtual_ticks != 0) {
    virtual_time_ticks_.fetch_add(totals.virtual_ticks,
                                  std::memory_order_acq_rel);
  }
  if (totals.evals != 0) {
    unique_evals_.fetch_add(totals.evals, std::memory_order_acq_rel);
    CSTUNER_OBS_COUNT("evaluator.evals", totals.evals);
  }
  totals = CommitTotals{};
}

void Evaluator::check_cancelled() const {
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_acquire)) {
    throw CancelledError("evaluation cancelled");
  }
  if (virtual_time_s() >= virtual_deadline_s_) {
    throw DeadlineError("virtual deadline of " +
                        std::to_string(virtual_deadline_s_) +
                        " s expired at " + std::to_string(virtual_time_s()) +
                        " s of virtual time");
  }
}

EvalResult Evaluator::evaluate_result(const space::Setting& setting) {
  return evaluate_batch(std::span<const space::Setting>(&setting, 1)).front();
}

double Evaluator::evaluate(const space::Setting& setting) {
  return evaluate_result(setting).time_or_inf();
}

std::vector<EvalResult> Evaluator::evaluate_batch(
    std::span<const space::Setting> settings) {
  // Cooperative cancellation point: the check runs before any shared state
  // is touched, so a cancelled or deadline-expired batch leaves the cache,
  // clock, quarantine and statistics exactly as the previous batch left
  // them — a batch that starts always commits whole.
  check_cancelled();
  CSTUNER_TRACE_SPAN("eval", "evaluator.batch");
  CSTUNER_OBS_COUNT("evaluator.batches", 1);
  CSTUNER_OBS_OBSERVE("evaluator.batch_size", settings.size());
  const std::size_t n = settings.size();
  std::vector<EvalResult> results(n);
  std::vector<std::uint64_t> keys(n, 0);
  std::vector<Probe> probes(n);
  std::vector<std::exception_ptr> errors(n);
  const int max_attempts = effective_max_attempts();

  // Phase 1 (parallel over fixed-size chunks): per slot, the pure decision
  // pipeline (cache, quarantine, validity, replay, fault ladder); then one
  // SoA pass through the simulator's batch oracle for every slot in the
  // chunk that reached a real measurement, and the deterministic run noise
  // on top. Chunk boundaries depend only on the batch size — never on the
  // worker count — and nothing is committed yet, so thread scheduling
  // cannot influence any result. A slot that throws is recorded and left
  // kInvalid; its neighbours still measure.
  const std::size_t chunks = (n + kProbeChunk - 1) / kProbeChunk;
  const auto probe_chunk = [&](std::size_t c) {
    const std::size_t begin = c * kProbeChunk;
    const std::size_t end = std::min(begin + kProbeChunk, n);
    for (std::size_t i = begin; i < end; ++i) keys[i] = settings[i].hash();

    // Cache probes for the whole chunk, grouped by shard: one lock per
    // shard touched instead of one per slot. A batch never mutates the
    // cache during phase 1, so lookup order within the chunk is
    // irrelevant. The counting sort keeps the grouping O(chunk) instead of
    // one sweep per shard.
    std::array<std::uint8_t, kProbeChunk> chunk_order;
    std::array<std::uint8_t, kCacheShards + 1> shard_start{};
    for (std::size_t i = begin; i < end; ++i) {
      ++shard_start[shard_index(keys[i]) + 1];
    }
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      shard_start[s + 1] =
          static_cast<std::uint8_t>(shard_start[s + 1] + shard_start[s]);
    }
    std::array<std::uint8_t, kCacheShards> cursor;
    std::copy_n(shard_start.begin(), kCacheShards, cursor.begin());
    for (std::size_t i = begin; i < end; ++i) {
      chunk_order[cursor[shard_index(keys[i])]++] =
          static_cast<std::uint8_t>(i - begin);
    }
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      if (shard_start[s] == shard_start[s + 1]) continue;
      Shard& shard = shards_[s];
      std::uint64_t hits = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (std::size_t j = shard_start[s]; j < shard_start[s + 1]; ++j) {
          const std::size_t i = begin + chunk_order[j];
          if (const EvalResult* found = shard.map.find(keys[i])) {
            probes[i].state = Probe::State::kCached;
            probes[i].result = *found;
            ++hits;
          }
        }
      }
      if (hits != 0) count_cache_hits(s, hits);
    }

    for (std::size_t i = begin; i < end; ++i) {
      if (probes[i].state == Probe::State::kCached) continue;
      try {
        probes[i] = probe_uncached(keys[i], settings[i], max_attempts);
      } catch (...) {
        errors[i] = std::current_exception();  // probes[i] stays kInvalid
      }
    }
    // Gather the measuring slots contiguously for the batch oracle. The
    // buffers are per-worker and reused across chunks: no allocation in
    // steady state.
    thread_local std::vector<std::size_t> pending;
    thread_local std::vector<space::Setting> pending_settings;
    thread_local std::vector<space::ResourceUsage> pending_usages;
    thread_local std::vector<double> pending_times;
    pending.clear();
    pending_usages.clear();
    for (std::size_t i = begin; i < end; ++i) {
      if (probes[i].needs_time) {
        pending.push_back(i);
        pending_usages.push_back(probes[i].usage);
      }
    }
    if (pending.empty()) return;
    // When every slot measures (the fresh-tune steady state), the pending
    // list IS the chunk: hand the original subspan to the oracle instead of
    // copying 64 Settings per chunk. Same elements in the same order, so
    // the results are bit-identical to the gathered path.
    std::span<const space::Setting> oracle_settings;
    if (pending.size() == end - begin) {
      oracle_settings = settings.subspan(begin, end - begin);
    } else {
      pending_settings.clear();
      for (const std::size_t i : pending) {
        pending_settings.push_back(settings[i]);
      }
      oracle_settings = pending_settings;
    }
    pending_times.assign(pending.size(), 0.0);
    try {
      if (usage_reusable_) {
        simulator_.profile_times(*inv_, oracle_settings, pending_usages,
                                 pending_times);
      } else {
        simulator_.profile_times(*inv_, oracle_settings, pending_times);
      }
    } catch (...) {
      // Cannot happen for constraint-valid settings (validity implies
      // launchability); if it ever does, fail the whole chunk's pending
      // slots rather than commit half-measured results.
      const std::exception_ptr err = std::current_exception();
      for (const std::size_t i : pending) {
        errors[i] = err;
        probes[i] = Probe{};
      }
      return;
    }
    for (std::size_t j = 0; j < pending.size(); ++j) {
      finish_measure(keys[pending[j]], pending_times[j], probes[pending[j]]);
    }
    CSTUNER_OBS_COUNT(
        "evaluator.measure_runs",
        pending.size() * static_cast<std::size_t>(costs_.runs_per_eval));
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(chunks, probe_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) probe_chunk(c);
  }

  // Phase 2a (sequential): the cache step of every measured slot, grouped
  // by shard — one lock per shard per batch instead of one per slot.
  // Within a shard the slots run in input order, the only order
  // first-writer-wins can observe (keys in different shards never
  // collide). A losing duplicate — earlier in this batch, or a concurrent
  // batch's insert — converts to kCached carrying the winner's value, so
  // the commit loop below serves it and charges nothing.
  std::vector<std::uint32_t> measured_order;
  measured_order.reserve(n);
  std::array<std::uint32_t, kCacheShards + 1> measured_start{};
  for (std::size_t i = 0; i < n; ++i) {
    if (probes[i].state == Probe::State::kMeasured) {
      ++measured_start[shard_index(keys[i]) + 1];
    }
  }
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    measured_start[s + 1] += measured_start[s];
  }
  measured_order.resize(measured_start[kCacheShards]);
  {
    std::array<std::uint32_t, kCacheShards> cursor;
    std::copy_n(measured_start.begin(), kCacheShards, cursor.begin());
    for (std::size_t i = 0; i < n; ++i) {
      if (probes[i].state == Probe::State::kMeasured) {
        measured_order[cursor[shard_index(keys[i])]++] =
            static_cast<std::uint32_t>(i);
      }
    }
  }
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    if (measured_start[s] == measured_start[s + 1]) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t j = measured_start[s]; j < measured_start[s + 1]; ++j) {
      const std::size_t i = measured_order[j];
      Probe& probe = probes[i];
      if (is_cacheable(probe.result)) {
        const auto [slot, inserted] =
            shard.map.try_emplace(keys[i], probe.result);
        if (!inserted) {
          probe.state = Probe::State::kCached;
          probe.result = *slot;
        }
      } else if (const EvalResult* found = shard.map.find(keys[i])) {
        probe.state = Probe::State::kCached;
        probe.result = *found;
      }
    }
  }

  // Phase 2b (sequential, input order): commit exactly as a serial caller
  // would have. Duplicate settings within the batch commit once; later
  // occurrences read the freshly cached value. Slots that threw stayed
  // kInvalid and commit nothing. Clean-success clock/counter charges
  // accumulate locally and flush once at the end (or earlier, whenever a
  // trace update needs the exact running totals).
  CommitTotals totals;
  for (std::size_t i = 0; i < n; ++i) {
    // Inline fast path: a clean first-attempt success that phase 2a already
    // cached and that cannot be a new best. This replicates commit_one's
    // exact route for that case — accumulate the clock charge, skip the
    // fault/journal/trace machinery — without the call; everything else
    // (faults, replays, dups, new bests, active checkpoints) drops to the
    // full commit.
    const Probe& probe = probes[i];
    if (probe.state == Probe::State::kMeasured && checkpoint_ == nullptr &&
        probe.result.ok() && probe.result.attempts <= 1 && !probe.replayed &&
        probe.overhead_ticks == 0 &&
        !(probe.result.time_ms <
          std::bit_cast<double>(best_bits_.load(std::memory_order_acquire)))) {
      totals.virtual_ticks += success_cost_ticks(probe.result.time_ms);
      ++totals.evals;
      results[i] = probe.result;
      continue;
    }
    results[i] = commit_one(keys[i], settings[i], probes[i], totals);
  }
  flush_commit_totals(totals);

  // Drain, don't leak: every completed slot is committed (cache, clock,
  // journal) above; only then does the lowest-index failure propagate.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

double Evaluator::best_time_ms() const {
  std::lock_guard<std::mutex> lock(result_mutex_);
  return best_time_ms_;
}

FaultStats Evaluator::fault_stats() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  FaultStats stats = stats_;
  stats.fault_overhead_s =
      static_cast<double>(
          fault_overhead_ticks_.load(std::memory_order_acquire)) /
      kTicksPerSecond;
  return stats;
}

bool Evaluator::is_quarantined(std::uint64_t setting_key) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return quarantine_.contains(setting_key);
}

std::vector<std::uint64_t> Evaluator::quarantined_keys() const {
  std::vector<std::uint64_t> keys;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    keys.assign(quarantine_.begin(), quarantine_.end());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string Evaluator::serialize_state() const {
  const FaultStats stats = fault_stats();
  JsonWriter json;
  json.begin_object();
  json.key("stats");
  stats.write_json(json);
  json.key("quarantine").begin_array();
  for (std::uint64_t key : quarantined_keys()) json.value(key);
  json.end_array();
  json.field("unique_evals",
             static_cast<std::uint64_t>(unique_evaluations()));
  json.field("iterations", static_cast<std::uint64_t>(iterations()));
  json.field("virtual_time_ticks",
             virtual_time_ticks_.load(std::memory_order_acquire));
  json.field("best_ms_bits", std::bit_cast<std::uint64_t>(best_time_ms()));
  json.end_object();
  return json.str();
}

void Evaluator::mark_iteration() {
  CSTUNER_OBS_COUNT("evaluator.iterations", 1);
  iterations_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (best_setting_.has_value()) {
      trace_.record(iterations(), unique_evaluations(), virtual_time_s(),
                    best_time_ms_);
    }
  }
  if (checkpoint_ != nullptr) {
    checkpoint_->flush();
    const auto iter = iterations();
    if (iter % static_cast<std::size_t>(checkpoint_->snapshot_interval()) ==
        0) {
      checkpoint_->write_snapshot(serialize_state());
    }
  }
}

void Evaluator::reset() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  virtual_time_ticks_.store(0, std::memory_order_release);
  unique_evals_.store(0, std::memory_order_release);
  iterations_.store(0, std::memory_order_release);
  fault_overhead_ticks_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    stats_ = FaultStats{};
    fail_counts_.clear();
    quarantine_.clear();
    quarantine_count_.store(0, std::memory_order_release);
  }
  std::lock_guard<std::mutex> lock(result_mutex_);
  best_time_ms_ = std::numeric_limits<double>::infinity();
  best_setting_.reset();
  best_bits_.store(0x7ff0000000000000ULL, std::memory_order_release);
  trace_.clear();
}

}  // namespace cstuner::tuner
