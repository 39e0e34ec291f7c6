#include "serve/session_manager.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/analyzer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/simulator.hpp"
#include "obs/obs.hpp"
#include "search/registry.hpp"
#include "stencil/stencils.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::serve {

namespace {

/// Queued and running sessions are live; everything else rests (final
/// states plus kInterrupted, which rests until the next daemon adopts it).
bool session_resting(SessionState state) {
  return state != SessionState::kQueued && state != SessionState::kRunning;
}

space::Setting setting_from_raw(const std::vector<std::int64_t>& raw) {
  space::Setting setting;
  for (std::size_t i = 0; i < space::kParamCount && i < raw.size(); ++i) {
    setting.set(static_cast<space::ParamId>(i), raw[i]);
  }
  return setting;
}

SessionResult result_from(const tuner::Evaluator& evaluator,
                          SessionState state) {
  SessionResult result;
  result.state = state;
  result.best_time_bits = std::bit_cast<std::uint64_t>(evaluator.best_time_ms());
  if (evaluator.best_setting().has_value()) {
    result.best_setting = evaluator.best_setting()->to_string();
  }
  result.evaluations = evaluator.unique_evaluations();
  result.iterations = evaluator.iterations();
  result.virtual_time_bits =
      std::bit_cast<std::uint64_t>(evaluator.virtual_time_s());
  return result;
}

std::unique_ptr<tuner::Tuner> make_tuner(const TuneRequest& request) {
  core::CsTunerOptions options;
  options.universe_size = static_cast<std::size_t>(request.universe);
  options.seed = request.seed;
  return search::make_tuner(request.method, options);
}

/// Hostile-input validation, before anything is charged or persisted.
/// UsageError maps to a bad_request response at the server.
void validate_request(const TuneRequest& request, const RequestLimits& lim) {
  const auto check_name = [&](const char* field, const std::string& value) {
    if (value.size() > lim.max_name_bytes) {
      throw UsageError(std::string(field) + " exceeds " +
                       std::to_string(lim.max_name_bytes) + " bytes");
    }
  };
  check_name("kind", request.kind);
  check_name("stencil", request.stencil);
  check_name("arch", request.arch);
  check_name("method", request.method);
  check_name("tenant", request.tenant);
  if (!(request.budget_s >= 0.0) || request.budget_s > lim.max_budget_s) {
    throw UsageError("budget_s out of range [0, " +
                     std::to_string(lim.max_budget_s) + "]");
  }
  if (!(request.deadline_s >= 0.0) ||
      request.deadline_s > lim.max_deadline_s) {
    throw UsageError("deadline_s out of range [0, " +
                     std::to_string(lim.max_deadline_s) + "]");
  }
  if (!(request.fault_rate >= 0.0) || request.fault_rate > 1.0) {
    throw UsageError("fault_rate out of range [0, 1]");
  }
  if (request.universe == 0 || request.universe > lim.max_universe) {
    throw UsageError("universe out of range [1, " +
                     std::to_string(lim.max_universe) + "]");
  }
  if (request.samples > lim.max_samples) {
    throw UsageError("samples exceeds " + std::to_string(lim.max_samples));
  }
  if (request.warm.size() > lim.max_warm_values) {
    throw UsageError("warm setting exceeds " +
                     std::to_string(lim.max_warm_values) + " values");
  }
}

}  // namespace

SessionManager::SessionManager(ServeOptions options)
    : options_(std::move(options)),
      vfs_(options_.vfs != nullptr ? options_.vfs : &io::Vfs::real()),
      warm_store_(options_.warm_start ? options_.state_dir + "/warm_store.json"
                                      : std::string(),
                  vfs_),
      admission_(options_.admission) {
  vfs_->mkdirs(sessions_dir());
  std::lock_guard<std::mutex> lock(mutex_);
  recover_locked();
}

SessionManager::~SessionManager() { drain(options_.drain_grace_s); }

std::string SessionManager::sessions_dir() const {
  return options_.state_dir + "/sessions";
}

std::string SessionManager::session_dir(std::uint64_t id) const {
  return sessions_dir() + "/" + std::to_string(id);
}

void SessionManager::write_manifest(const Session& session) const {
  JsonWriter json;
  json.begin_object().field("id", session.id);
  session.request.write_fields(json);
  json.end_object();
  write_file_atomic(session.dir + "/manifest.json", json.str() + "\n", vfs_);
}

void SessionManager::write_result(const Session& session) const {
  JsonWriter json;
  json.begin_object().field("id", session.id);
  session.result.write_fields(json);
  json.end_object();
  write_file_atomic(session.dir + "/result.json", json.str() + "\n", vfs_);
}

void SessionManager::recover_locked() {
  // Every manifest is an accepted request; a missing result.json means the
  // previous daemon never finished it (clean drain and SIGKILL look the
  // same here, by design) — re-adopt and let the checkpoint replay carry
  // the run to the same final bits an uninterrupted run would produce.
  std::vector<std::uint64_t> ids;
  for (const std::string& name : vfs_->list_dir(sessions_dir())) {
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(name.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id == 0) continue;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());  // adopt in submission order

  for (const std::uint64_t id : ids) {
    const std::string dir = session_dir(id);
    TuneRequest request;
    try {
      request = TuneRequest::from_json(
          json_parse(read_file(dir + "/manifest.json", vfs_)));
    } catch (const Error&) {
      // No (or torn) manifest: the submit never completed, so the session
      // was never acknowledged — nothing to recover.
      continue;
    }
    auto session = std::make_unique<Session>();
    session->id = id;
    session->request = std::move(request);
    session->dir = dir;
    if (vfs_->exists(dir + "/result.json")) {
      try {
        session->result = SessionResult::from_json(
            json_parse(read_file(dir + "/result.json", vfs_)));
        session->state = session->result.state;
      } catch (const Error&) {
        session->state = SessionState::kQueued;  // torn result: rerun
      }
    } else {
      session->state = SessionState::kQueued;
    }
    if (!session_resting(session->state)) {
      session->state = SessionState::kQueued;
      admission_.adopt(session->request.tenant);
      ++adopted_;
    }
    next_id_ = std::max(next_id_, id + 1);
    sessions_[id] = std::move(session);
  }
  if (adopted_ > 0) {
    std::cerr << "serve: re-adopted " << adopted_
              << " interrupted session(s) from " << sessions_dir() << "\n";
  }
  pump_locked();
}

SubmitOutcome SessionManager::submit(TuneRequest request) {
  SubmitOutcome out;
  // Validate before taking the lock or charging quotas: malformed or
  // hostile requests must never consume admission capacity — and the limit
  // checks run first, so a 10 MB stencil name is rejected before anything
  // tries to look it up.
  validate_request(request, options_.limits);
  const stencil::StencilSpec spec = stencil::make_stencil(request.stencil);
  const gpusim::GpuArch& arch = gpusim::arch_by_name(request.arch);
  if (request.kind == "tune") make_tuner(request);  // validates method

  if (request.kind == "tune" && options_.warm_start && request.warm.empty()) {
    space::SearchSpace space(spec);
    if (auto warm = warm_store_.predict(space, request.arch)) {
      // Pin the prediction into the request now: the manifest records it,
      // so a resumed run replays the same warm start even though the store
      // has moved on since.
      request.warm.assign(warm->raw().begin(), warm->raw().end());
      out.warm_setting = warm->to_string();
      gpusim::Simulator sim(arch);
      try {
        out.warm_predicted_ms = sim.profile(spec, *warm).time_ms;
      } catch (const Error&) {
        out.warm_predicted_ms = 0.0;
      }
    }
  } else if (!request.warm.empty()) {
    out.warm_setting = setting_from_raw(request.warm).to_string();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  const AdmissionDecision decision = admission_.try_admit(request.tenant);
  if (!decision.admitted) {
    ++rejected_total_;
    obs::metrics().counter("serve.rejected." + request.tenant).add(1);
    out.reject_reason = decision.reason;
    out.retry_after_s = decision.retry_after_s;
    update_gauges_locked();
    return out;
  }

  const std::uint64_t id = next_id_++;
  auto session = std::make_unique<Session>();
  session->id = id;
  session->request = std::move(request);
  session->dir = session_dir(id);
  try {
    vfs_->mkdirs(session->dir);
    // The durable manifest IS the acceptance: once this rename lands, no
    // crash can drop the session (zero dropped-but-accepted requests).
    write_manifest(*session);
  } catch (...) {
    admission_.on_abandon(session->request.tenant);
    throw;
  }
  ++accepted_total_;
  obs::metrics().counter("serve.accepted." + session->request.tenant).add(1);
  sessions_[id] = std::move(session);
  pump_locked();
  out.accepted = true;
  out.id = id;
  return out;
}

std::optional<SessionStatus> SessionManager::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  SessionStatus status;
  status.id = id;
  status.state = it->second->state;
  status.tenant = it->second->request.tenant;
  status.stencil = it->second->request.stencil;
  status.result = it->second->result;
  return status;
}

std::optional<SessionResult> SessionManager::result(std::uint64_t id,
                                                    double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  Session* session = it->second.get();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  if (!cv_.wait_until(lock, deadline, [session] {
        return session_resting(session->state);
      })) {
    return std::nullopt;
  }
  SessionResult result = session->result;
  result.state = session->state;
  return result;
}

bool SessionManager::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session* session = it->second.get();
  if (session_resting(session->state)) return false;
  if (session->state == SessionState::kQueued) {
    session->state = SessionState::kCancelled;
    session->result = SessionResult{};
    session->result.state = SessionState::kCancelled;
    session->result.error = "cancelled before start";
    admission_.on_abandon(session->request.tenant);
    try {
      write_result(*session);
    } catch (const Error&) {
    }
    pump_locked();
    cv_.notify_all();
    return true;
  }
  // Running: raise the flag; the evaluator throws CancelledError at its
  // next batch boundary without touching shared state.
  session->cancel.store(true, std::memory_order_release);
  return true;
}

bool SessionManager::drain(double grace_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  admission_.set_draining(true);
  drained_ = true;
  for (auto& [id, session] : sessions_) {
    if (session->state == SessionState::kQueued) {
      // Park for the next daemon: the manifest stays, no result.json is
      // written, so restart re-adopts it.
      session->state = SessionState::kInterrupted;
      session->result = SessionResult{};
      session->result.state = SessionState::kInterrupted;
      admission_.on_abandon(session->request.tenant);
    } else if (session->state == SessionState::kRunning) {
      session->drain_requested = true;
      session->cancel.store(true, std::memory_order_release);
    }
  }
  update_gauges_locked();
  cv_.notify_all();

  const bool rested = cv_.wait_for(
      lock, std::chrono::duration<double>(grace_s), [this] {
        return std::all_of(sessions_.begin(), sessions_.end(),
                           [](const auto& kv) {
                             return session_resting(kv.second->state);
                           });
      });

  // Join dispatch threads outside the lock (they need it to finish).
  // Cancellation guarantees each exits at its next evaluator call, so
  // these joins terminate even when the grace period ran out first.
  std::vector<std::thread> zombies;
  for (auto& [id, session] : sessions_) {
    if (session->thread.joinable()) {
      zombies.push_back(std::move(session->thread));
    }
  }
  lock.unlock();
  for (std::thread& thread : zombies) thread.join();
  return rested;
}

ServeStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeStats stats;
  for (const auto& [id, session] : sessions_) {
    if (session->state == SessionState::kQueued) {
      ++stats.queued;
    } else if (session->state == SessionState::kRunning) {
      ++stats.running;
    } else {
      ++stats.resting;
    }
  }
  stats.adopted = adopted_;
  stats.accepted_total = accepted_total_;
  stats.rejected_total = rejected_total_;
  stats.warm_entries = warm_store_.size();
  return stats;
}

void SessionManager::pump_locked() {
  // Reap dispatch threads of rested sessions (a rested session's thread
  // never reacquires the manager mutex, so this join can only block on its
  // final stack unwind). A dispatch thread pumping from finish_session
  // skips itself — drain() joins it later.
  for (auto& [id, session] : sessions_) {
    if (session->thread.joinable() && session_resting(session->state) &&
        session->thread.get_id() != std::this_thread::get_id()) {
      session->thread.join();
    }
  }
  for (auto& [id, session] : sessions_) {
    if (!admission_.can_start()) break;
    if (session->state != SessionState::kQueued) continue;
    if (admission_.draining()) break;
    admission_.on_start();
    session->state = SessionState::kRunning;
    session->thread =
        std::thread(&SessionManager::run_session, this, session.get());
  }
  update_gauges_locked();
}

void SessionManager::update_gauges_locked() {
  std::size_t queued = 0;
  std::size_t running = 0;
  for (const auto& [id, session] : sessions_) {
    queued += session->state == SessionState::kQueued ? 1 : 0;
    running += session->state == SessionState::kRunning ? 1 : 0;
  }
  CSTUNER_OBS_GAUGE("serve.queue_depth", queued);
  CSTUNER_OBS_GAUGE("serve.running", running);
  ThreadPool& pool = ThreadPool::global();
  CSTUNER_OBS_GAUGE("pool.queue_depth", pool.queue_depth());
  CSTUNER_OBS_GAUGE("pool.inflight", pool.inflight());
}

void SessionManager::run_session(Session* session) {
  CSTUNER_TRACE_SPAN("serve", "session");
  try {
    if (session->request.kind == "analyze") {
      run_analyze(*session);
    } else {
      run_tune(*session);
    }
  } catch (const std::exception& e) {
    SessionResult result;
    result.state = SessionState::kFailed;
    result.error = e.what();
    finish_session(session, SessionState::kFailed, std::move(result));
  }
}

void SessionManager::run_tune(Session& session) {
  const TuneRequest& request = session.request;
  const stencil::StencilSpec spec = stencil::make_stencil(request.stencil);
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::arch_by_name(request.arch));
  tuner::Evaluator evaluator(sim, space, {}, request.seed);
  evaluator.set_cancel_flag(&session.cancel);
  if (request.deadline_s > 0.0) {
    evaluator.set_virtual_deadline(request.deadline_s);
  }
  if (request.fault_rate > 0.0) {
    evaluator.set_fault_injection(
        gpusim::FaultConfig::uniform(request.fault_rate, request.seed),
        spec.name);
  }

  tuner::Checkpoint checkpoint(session.dir + "/checkpoint", vfs_);
  checkpoint.set_sync_policy(options_.checkpoint_sync);
  if (checkpoint.has_journal_file()) {
    const std::size_t recovered = checkpoint.load();
    std::cerr << "serve: session " << session.id << " resuming, " << recovered
              << " journaled evaluation(s)\n";
  }
  evaluator.set_checkpoint(&checkpoint);

  const auto checkpoint_and_rest = [&](SessionState state,
                                       const std::string& error) {
    checkpoint.flush();
    checkpoint.write_snapshot(evaluator.serialize_state());
    SessionResult result = result_from(evaluator, state);
    result.error = error;
    finish_session(&session, state, std::move(result));
  };

  try {
    // Replay the manifest-pinned warm start first: it seeds best-so-far
    // (and the cache) before the tuner's own search, and because it is the
    // first journaled evaluation a resumed run replays it identically.
    if (!request.warm.empty()) {
      const space::Setting warm = setting_from_raw(request.warm);
      if (space.is_valid(warm)) evaluator.evaluate(warm);
    }
    std::unique_ptr<tuner::Tuner> tuner = make_tuner(request);
    tuner::StopCriteria stop;
    stop.max_virtual_seconds = request.budget_s;
    tuner->tune(evaluator, stop);
  } catch (const DeadlineError& e) {
    checkpoint_and_rest(SessionState::kExpired, e.what());
    return;
  } catch (const CancelledError& e) {
    // Drain-initiated cancels park the session for the next daemon; an
    // explicit client cancel is final. Both flush everything committed so
    // far — an interrupted session resumes from here bit-identically.
    checkpoint_and_rest(session.drain_requested ? SessionState::kInterrupted
                                                : SessionState::kCancelled,
                        e.what());
    return;
  } catch (const tuner::CheckpointError& e) {
    // The storage failed, not the tuning. Degrade exactly this session:
    // the evaluator's shared state is untouched (the typed error already
    // guarantees no partial mutation), no result.json means a later daemon
    // re-adopts and retries from whatever the journal durably holds.
    CSTUNER_OBS_COUNT("serve.checkpoint_failures", 1);
    SessionResult result = result_from(evaluator, SessionState::kFailed);
    result.error = e.what();
    finish_session(&session, SessionState::kFailed, std::move(result));
    return;
  }

  checkpoint.flush();
  checkpoint.write_snapshot(evaluator.serialize_state());
  SessionResult result = result_from(evaluator, SessionState::kDone);
  if (options_.warm_start && evaluator.best_setting().has_value()) {
    warm_store_.add(spec, request.arch, *evaluator.best_setting(),
                    evaluator.best_time_ms());
  }
  finish_session(&session, SessionState::kDone, std::move(result));
}

void SessionManager::run_analyze(Session& session) {
  const TuneRequest& request = session.request;
  const stencil::StencilSpec spec = stencil::make_stencil(request.stencil);
  space::SearchSpace space(spec);
  const gpusim::GpuArch& arch = gpusim::arch_by_name(request.arch);
  analysis::AnalyzerOptions options;
  options.arch = &arch;

  Rng rng(request.seed);
  std::uint64_t errors = 0;
  std::uint64_t warnings = 0;
  try {
    for (std::uint64_t i = 0; i < request.samples; ++i) {
      if (session.cancel.load(std::memory_order_acquire)) {
        throw CancelledError("analysis cancelled");
      }
      const space::Setting setting = space.random_valid(rng);
      const analysis::Report report =
          analysis::analyze_setting(spec, setting, options);
      errors += report.error_count();
      warnings += report.count(analysis::Severity::kWarning);
    }
  } catch (const CancelledError& e) {
    // Analysis has no journal; an interrupted one simply reruns from its
    // seed next time (same settings, same verdicts — it is deterministic).
    SessionResult result;
    result.state = session.drain_requested ? SessionState::kInterrupted
                                           : SessionState::kCancelled;
    result.error = e.what();
    finish_session(&session, result.state, std::move(result));
    return;
  }

  SessionResult result;
  result.state = SessionState::kDone;
  result.evaluations = request.samples;
  result.lint_errors = errors;
  result.lint_warnings = warnings;
  finish_session(&session, SessionState::kDone, std::move(result));
}

void SessionManager::finish_session(Session* session, SessionState state,
                                    SessionResult result) {
  std::lock_guard<std::mutex> lock(mutex_);
  session->state = state;
  result.state = state;
  session->result = std::move(result);
  admission_.on_finish(session->request.tenant);
  obs::metrics()
      .counter("serve.finished." + session->request.tenant)
      .add(1);
  if (state != SessionState::kInterrupted) {
    // Interrupted sessions intentionally leave no result.json: its absence
    // is what marks them for re-adoption on the next start.
    try {
      write_result(*session);
    } catch (const Error& e) {
      std::cerr << "serve: session " << session->id
                << ": cannot publish result: " << e.what() << "\n";
    }
  }
  pump_locked();
  cv_.notify_all();
}

}  // namespace cstuner::serve
