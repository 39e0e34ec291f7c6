// Serve-layer robustness: protocol roundtrips, admission/backpressure
// accounting, warm-store persistence and prediction validity, and the
// SessionManager guarantees the daemon is built on — concurrent sessions
// bit-identical to serial runs under a fault storm, deadline expiry that
// never poisons a neighbour, and drain/re-adopt recovery that finishes with
// the same bits an uninterrupted run produces.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/error.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/session_manager.hpp"
#include "serve/warm_store.hpp"
#include "stencil/stencils.hpp"

namespace cstuner::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstuner_serve_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small but real tuning request: finishes in a couple of seconds, large
/// enough that every pipeline stage runs.
TuneRequest small_tune(const std::string& stencil, std::uint64_t seed) {
  TuneRequest request;
  request.stencil = stencil;
  request.seed = seed;
  request.budget_s = 2.0;
  request.universe = 400;
  request.fault_rate = 0.2;  // the storm: ~20% of evaluations fault
  return request;
}

ServeOptions quiet_options(const std::string& dir) {
  ServeOptions options;
  options.state_dir = dir;
  options.warm_start = false;  // predictions depend on completion order
  return options;
}

SessionResult run_to_completion(const std::string& dir,
                                const TuneRequest& request) {
  SessionManager manager(quiet_options(dir));
  const SubmitOutcome out = manager.submit(request);
  EXPECT_TRUE(out.accepted);
  const auto result = manager.result(out.id, 90.0);
  EXPECT_TRUE(result.has_value());
  return result.value_or(SessionResult{});
}

void expect_bit_identical(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.best_time_bits, b.best_time_bits);
  EXPECT_EQ(a.best_setting, b.best_setting);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.virtual_time_bits, b.virtual_time_bits);
}

// --- Protocol --------------------------------------------------------------

TEST(ServeProtocol, SessionStateNamesRoundtrip) {
  for (const SessionState state :
       {SessionState::kQueued, SessionState::kRunning, SessionState::kDone,
        SessionState::kFailed, SessionState::kCancelled,
        SessionState::kExpired, SessionState::kInterrupted}) {
    EXPECT_EQ(session_state_from_name(session_state_name(state)), state);
  }
  EXPECT_TRUE(session_state_final(SessionState::kDone));
  EXPECT_TRUE(session_state_final(SessionState::kExpired));
  EXPECT_FALSE(session_state_final(SessionState::kInterrupted));
  EXPECT_FALSE(session_state_final(SessionState::kRunning));
}

TEST(ServeProtocol, TuneRequestJsonRoundtrip) {
  TuneRequest request;
  request.kind = "analyze";
  request.stencil = "cheby";
  request.arch = "v100";
  request.method = "garvey";
  request.tenant = "team-a";
  request.seed = 42;
  request.budget_s = 12.5;
  request.deadline_s = 3.25;
  request.fault_rate = 0.125;
  request.universe = 1234;
  request.samples = 9;
  request.warm = {2, 1, 1, 1, 4, 8};

  JsonWriter json;
  json.begin_object();
  request.write_fields(json);
  json.end_object();
  const TuneRequest parsed = TuneRequest::from_json(json_parse(json.str()));

  EXPECT_EQ(parsed.kind, request.kind);
  EXPECT_EQ(parsed.stencil, request.stencil);
  EXPECT_EQ(parsed.arch, request.arch);
  EXPECT_EQ(parsed.method, request.method);
  EXPECT_EQ(parsed.tenant, request.tenant);
  EXPECT_EQ(parsed.seed, request.seed);
  EXPECT_EQ(parsed.budget_s, request.budget_s);
  EXPECT_EQ(parsed.deadline_s, request.deadline_s);
  EXPECT_EQ(parsed.fault_rate, request.fault_rate);
  EXPECT_EQ(parsed.universe, request.universe);
  EXPECT_EQ(parsed.samples, request.samples);
  EXPECT_EQ(parsed.warm, request.warm);
}

TEST(ServeProtocol, SessionResultBitsSurviveJson) {
  SessionResult result;
  result.state = SessionState::kExpired;
  result.best_time_bits = 0x400921FB54442D18ULL;  // pi, full mantissa
  result.best_setting = "TBx=32 TBy=4";
  result.evaluations = 777;
  result.iterations = 13;
  result.virtual_time_bits = 0x3FF0000000000001ULL;  // 1.0 + 1 ulp
  result.error = "deadline";

  JsonWriter json;
  json.begin_object();
  result.write_fields(json);
  json.end_object();
  const SessionResult parsed = SessionResult::from_json(json_parse(json.str()));

  EXPECT_EQ(parsed.state, result.state);
  EXPECT_EQ(parsed.best_time_bits, result.best_time_bits);
  EXPECT_EQ(parsed.best_setting, result.best_setting);
  EXPECT_EQ(parsed.evaluations, result.evaluations);
  EXPECT_EQ(parsed.iterations, result.iterations);
  EXPECT_EQ(parsed.virtual_time_bits, result.virtual_time_bits);
  EXPECT_EQ(parsed.error, result.error);
}

TEST(ServeProtocol, WriteFileAtomicReplacesWholeFile) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/data.json";
  write_file_atomic(path, "first contents, quite long to make a torn "
                          "overwrite visible");
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), "second");
  EXPECT_THROW(read_file(dir + "/missing.json"), Error);
}

// --- Admission -------------------------------------------------------------

TEST(Admission, QueueBoundShedsWithGrowingRetryAfter) {
  AdmissionOptions options;
  options.max_queued = 2;
  options.tenant_quota = 100;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.try_admit("a").admitted);
  const double retry_at_1 = [] {
    AdmissionOptions probe_options;
    probe_options.max_queued = 0;
    AdmissionController probe(probe_options);
    return probe.try_admit("x").retry_after_s;
  }();
  EXPECT_TRUE(admission.try_admit("a").admitted);
  const AdmissionDecision shed = admission.try_admit("a");
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "queue_full");
  // Deeper queue => longer hint: the full queue's hint must exceed the
  // empty queue's.
  EXPECT_GT(shed.retry_after_s, retry_at_1);
  EXPECT_GT(shed.retry_after_s, 0.0);
}

TEST(Admission, TenantQuotaIsPerTenant) {
  AdmissionOptions options;
  options.max_queued = 100;
  options.tenant_quota = 1;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.try_admit("a").admitted);
  const AdmissionDecision over = admission.try_admit("a");
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, "tenant_quota");
  // Another tenant is unaffected.
  EXPECT_TRUE(admission.try_admit("b").admitted);
  // Finishing releases the quota: start, finish, re-admit.
  admission.on_start();
  admission.on_finish("a");
  EXPECT_TRUE(admission.try_admit("a").admitted);
}

TEST(Admission, DrainingRefusesEverything) {
  AdmissionController admission;
  admission.set_draining(true);
  const AdmissionDecision refused = admission.try_admit("a");
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reason, "draining");
}

TEST(Admission, AdoptBypassesQueueBoundButChargesTenant) {
  AdmissionOptions options;
  options.max_queued = 0;  // nothing gets in the front door
  options.tenant_quota = 100;
  AdmissionController admission(options);

  EXPECT_FALSE(admission.try_admit("a").admitted);
  admission.adopt("a");  // accepted work from a previous life must re-enter
  EXPECT_EQ(admission.queued(), 1u);
  EXPECT_EQ(admission.tenant_load("a"), 1u);
  admission.on_abandon("a");
  EXPECT_EQ(admission.queued(), 0u);
  EXPECT_EQ(admission.tenant_load("a"), 0u);
}

// --- Warm store ------------------------------------------------------------

TEST(WarmStoreTest, PersistsAcrossReopenAndKeepsFasterEntry) {
  const std::string dir = fresh_dir("warm");
  const std::string path = dir + "/warm_store.json";
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(5);
  const space::Setting fast = space.random_valid(rng);
  const space::Setting slow = space.random_valid(rng);

  {
    WarmStore store(path);
    store.add(spec, "a100", slow, 9.0);
    store.add(spec, "a100", fast, 3.0);  // replaces: faster
    store.add(spec, "a100", slow, 7.0);  // dropped: slower than 3.0
    EXPECT_EQ(store.size(), 1u);
  }
  WarmStore reopened(path);
  EXPECT_EQ(reopened.size(), 1u);
  const auto predicted = reopened.predict(space, "a100");
  ASSERT_TRUE(predicted.has_value());
  EXPECT_TRUE(space.is_valid(*predicted));
  EXPECT_EQ(predicted->to_string(), fast.to_string());
}

TEST(WarmStoreTest, CrossStencilPredictionIsAlwaysValid) {
  // Deposit best-knowns for several stencils, then ask for one the store
  // has never seen: whatever tier answers, the setting must be valid in
  // the *target* space.
  WarmStore store;  // in-memory
  Rng rng(17);
  for (const char* name :
       {"j3d7pt", "j3d27pt", "cheby", "hypterm", "addsgd4"}) {
    const auto spec = stencil::make_stencil(name);
    space::SearchSpace space(spec);
    store.add(spec, "a100", space.random_valid(rng), 5.0);
  }
  const auto target_spec = stencil::make_stencil("helmholtz");
  space::SearchSpace target(target_spec);
  const auto predicted = store.predict(target, "a100");
  ASSERT_TRUE(predicted.has_value());
  EXPECT_TRUE(target.is_valid(*predicted));
}

TEST(WarmStoreTest, MalformedFileIsIgnoredNotFatal) {
  const std::string dir = fresh_dir("warm_bad");
  const std::string path = dir + "/warm_store.json";
  write_file_atomic(path, "{this is not json");
  WarmStore store(path);
  EXPECT_EQ(store.size(), 0u);
}

TEST(WarmStoreTest, TruncationAtEveryByteLoadsEmptyNeverCrashes) {
  // The exhaustive corruption sweep (docs/durability.md): a store file cut
  // at EVERY byte prefix — and a garbage-suffixed one — must load as empty
  // (or, at full length, intact), keep predicting without poisoning, and
  // never throw out of the constructor.
  const std::string dir = fresh_dir("warm_torn");
  const std::string good_path = dir + "/warm_store.json";
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  Rng rng(23);
  {
    WarmStore store(good_path);
    store.add(spec, "a100", space.random_valid(rng), 3.0);
    store.add(stencil::make_stencil("cheby"), "v100",
              space::SearchSpace(stencil::make_stencil("cheby"))
                  .random_valid(rng),
              5.0);
  }
  const std::string good = read_file(good_path);
  ASSERT_GT(good.size(), 2u);

  const std::string torn_path = dir + "/torn.json";
  for (std::size_t len = 0; len <= good.size(); ++len) {
    write_file_atomic(torn_path, good.substr(0, len));
    WarmStore store(torn_path);
    // All-or-nothing: either the prefix still parses as the complete
    // document (the final bytes are just the trailing newline) and every
    // entry loads, or the store starts empty. Never a partial load.
    EXPECT_TRUE(store.size() == 0u || store.size() == 2u)
        << "partial load (" << store.size() << " entries) at prefix " << len;
    if (len == good.size()) {
      EXPECT_EQ(store.size(), 2u) << "intact store must load fully";
    }
    // A corrupt store must degrade predictions to "none", not garbage.
    const auto predicted = store.predict(space, "a100");
    if (store.size() == 0) {
      EXPECT_FALSE(predicted.has_value());
    } else {
      ASSERT_TRUE(predicted.has_value());
      EXPECT_TRUE(space.is_valid(*predicted));
    }
  }
  // Garbage variants: binary noise alone, and noise spliced after a torn
  // prefix. Must load empty (or fully, never partially) without throwing.
  write_file_atomic(torn_path, std::string("\x00\xff\x13garbage", 10));
  WarmStore garbaged(torn_path);
  EXPECT_EQ(garbaged.size(), 0u);
  write_file_atomic(torn_path, good.substr(0, good.size() / 2) + "\xfe\x01[");
  WarmStore spliced(torn_path);
  EXPECT_EQ(spliced.size(), 0u);
}

// --- SessionManager --------------------------------------------------------

TEST(SessionManagerTest, RejectsUnknownStencilWithoutChargingQuota) {
  SessionManager manager(quiet_options(fresh_dir("badreq")));
  TuneRequest request = small_tune("nosuch", 1);
  EXPECT_THROW(manager.submit(request), UsageError);
  EXPECT_EQ(manager.stats().accepted_total, 0u);
  EXPECT_EQ(manager.stats().rejected_total, 0u);
}

TEST(SessionManagerTest, OverloadShedsTypedAndKeepsEveryAcceptedSession) {
  ServeOptions options = quiet_options(fresh_dir("overload"));
  options.admission.max_running = 1;
  options.admission.max_queued = 1;
  SessionManager manager(options);

  std::vector<std::uint64_t> accepted;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SubmitOutcome out = manager.submit(small_tune("j3d7pt", seed));
    if (out.accepted) {
      accepted.push_back(out.id);
    } else {
      ++rejected;
      EXPECT_EQ(out.reject_reason, "queue_full");
      EXPECT_GT(out.retry_after_s, 0.0);
    }
  }
  // Bounded queue: 1 running + 1 queued admitted, the rest shed.
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(manager.stats().rejected_total, 2u);
  // Zero dropped-but-accepted: every accepted id reaches a final result.
  for (const std::uint64_t id : accepted) {
    const auto result = manager.result(id, 90.0);
    ASSERT_TRUE(result.has_value()) << "session " << id;
    EXPECT_EQ(result->state, SessionState::kDone);
  }
}

TEST(SessionManagerTest, CancelQueuedSessionReleasesItsSlot) {
  ServeOptions options = quiet_options(fresh_dir("cancelq"));
  options.admission.max_running = 1;
  SessionManager manager(options);

  const SubmitOutcome first = manager.submit(small_tune("j3d7pt", 1));
  const SubmitOutcome second = manager.submit(small_tune("j3d7pt", 2));
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(manager.cancel(second.id));
  const auto cancelled = manager.status(second.id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, SessionState::kCancelled);
  // Cancelling a resting session is a no-op "false".
  EXPECT_FALSE(manager.cancel(second.id));
  const auto result = manager.result(first.id, 90.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, SessionState::kDone);
}

TEST(SessionManagerTest, ConcurrentFaultStormSessionsMatchSerialRuns) {
  // Two tunes with a 20% fault storm run concurrently (shared ThreadPool,
  // interleaved batches) and must finish bit-identical to the same
  // requests run one at a time in their own managers.
  const TuneRequest request_a = small_tune("j3d7pt", 11);
  const TuneRequest request_b = small_tune("j3d27pt", 12);

  const SessionResult serial_a =
      run_to_completion(fresh_dir("storm_serial_a"), request_a);
  const SessionResult serial_b =
      run_to_completion(fresh_dir("storm_serial_b"), request_b);
  EXPECT_EQ(serial_a.state, SessionState::kDone);
  EXPECT_EQ(serial_b.state, SessionState::kDone);

  ServeOptions options = quiet_options(fresh_dir("storm_concurrent"));
  options.admission.max_running = 2;
  SessionManager manager(options);
  const SubmitOutcome out_a = manager.submit(request_a);
  const SubmitOutcome out_b = manager.submit(request_b);
  ASSERT_TRUE(out_a.accepted);
  ASSERT_TRUE(out_b.accepted);
  const auto concurrent_a = manager.result(out_a.id, 90.0);
  const auto concurrent_b = manager.result(out_b.id, 90.0);
  ASSERT_TRUE(concurrent_a.has_value());
  ASSERT_TRUE(concurrent_b.has_value());
  expect_bit_identical(*concurrent_a, serial_a);
  expect_bit_identical(*concurrent_b, serial_b);
}

TEST(SessionManagerTest, DeadlineExpiryDoesNotPoisonConcurrentSession) {
  // Session A expires its virtual deadline almost immediately; session B
  // shares the pool the whole time and must still finish bit-identical to
  // running alone.
  const TuneRequest request_b = small_tune("j3d7pt", 21);
  const SessionResult serial_b =
      run_to_completion(fresh_dir("deadline_serial"), request_b);

  ServeOptions options = quiet_options(fresh_dir("deadline_concurrent"));
  options.admission.max_running = 2;
  SessionManager manager(options);
  TuneRequest request_a = small_tune("helmholtz", 20);
  request_a.budget_s = 5.0;
  request_a.deadline_s = 0.05;  // virtual seconds; fires within the tune
  const SubmitOutcome out_a = manager.submit(request_a);
  const SubmitOutcome out_b = manager.submit(request_b);
  ASSERT_TRUE(out_a.accepted);
  ASSERT_TRUE(out_b.accepted);

  const auto expired = manager.result(out_a.id, 90.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->state, SessionState::kExpired);
  EXPECT_FALSE(expired->error.empty());

  const auto concurrent_b = manager.result(out_b.id, 90.0);
  ASSERT_TRUE(concurrent_b.has_value());
  expect_bit_identical(*concurrent_b, serial_b);
}

TEST(SessionManagerTest, DrainParksRunningSessionAndRestartResumesBitIdentical) {
  const std::string state_dir = fresh_dir("drain_resume");
  TuneRequest request = small_tune("j3d7pt", 31);
  // Sized so the run lasts a couple hundred milliseconds of wall time —
  // the drain below lands well inside it.
  request.budget_s = 600.0;
  request.universe = 20000;

  // Reference: the same request, never interrupted.
  const SessionResult reference =
      run_to_completion(fresh_dir("drain_reference"), request);
  EXPECT_EQ(reference.state, SessionState::kDone);

  std::uint64_t id = 0;
  {
    SessionManager manager(quiet_options(state_dir));
    const SubmitOutcome out = manager.submit(request);
    ASSERT_TRUE(out.accepted);
    id = out.id;
    // Let it get into the tune, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(manager.drain(30.0));
    const auto parked = manager.status(id);
    ASSERT_TRUE(parked.has_value());
    EXPECT_EQ(parked->state, SessionState::kInterrupted);
    // Parked sessions publish no result.json — that absence marks them
    // for re-adoption.
    EXPECT_FALSE(fs::exists(state_dir + "/sessions/" + std::to_string(id) +
                            "/result.json"));
  }

  SessionManager restarted(quiet_options(state_dir));
  EXPECT_EQ(restarted.adopted(), 1u);
  const auto resumed = restarted.result(id, 90.0);
  ASSERT_TRUE(resumed.has_value());
  expect_bit_identical(*resumed, reference);
}

TEST(SessionManagerTest, AnyRegistryOptimizerRunsAsAMethod) {
  // Methods resolve through search::make_tuner: a zoo optimizer runs like
  // the paper's methods, and "opentuner" stays the wire name of the
  // OpenTuner baseline.
  for (const char* method : {"anneal", "opentuner"}) {
    SCOPED_TRACE(method);
    TuneRequest request = small_tune("j3d7pt", 41);
    request.method = method;
    const SessionResult result =
        run_to_completion(fresh_dir(std::string("method_") + method), request);
    EXPECT_EQ(result.state, SessionState::kDone);
    EXPECT_GT(result.evaluations, 0u);
    EXPECT_FALSE(result.best_setting.empty());
  }
}

TEST(SessionManagerTest, ManifestWithRetiredEnumerateFieldIsReadopted) {
  // Manifests written before the "enumerate" field was retired still parse
  // (unknown members are ignored) and their sessions re-adopt and finish
  // with the bits a fresh submit of the same request produces.
  const TuneRequest request = small_tune("j3d7pt", 51);
  const SessionResult reference =
      run_to_completion(fresh_dir("retired_reference"), request);

  const std::string state_dir = fresh_dir("retired_enumerate");
  fs::create_directories(state_dir + "/sessions/1");
  JsonWriter json;
  json.begin_object().field("id", std::uint64_t{1});
  request.write_fields(json);
  json.end_object();
  std::string manifest = json.str();
  manifest.insert(manifest.size() - 1, R"(,"enumerate":false)");
  write_file_atomic(state_dir + "/sessions/1/manifest.json", manifest + "\n");

  SessionManager manager(quiet_options(state_dir));
  EXPECT_EQ(manager.adopted(), 1u);
  const auto result = manager.result(1, 90.0);
  ASSERT_TRUE(result.has_value());
  expect_bit_identical(*result, reference);
}

TEST(SessionManagerTest, AnalyzeSessionsReportLintCounts) {
  SessionManager manager(quiet_options(fresh_dir("analyze")));
  TuneRequest request;
  request.kind = "analyze";
  request.stencil = "cheby";
  request.samples = 4;
  request.seed = 3;
  const SubmitOutcome out = manager.submit(request);
  ASSERT_TRUE(out.accepted);
  const auto result = manager.result(out.id, 90.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, SessionState::kDone);
  EXPECT_EQ(result->evaluations, 4u);
  // Deterministic rerun: the same seed gives the same verdicts.
  SessionManager again(quiet_options(fresh_dir("analyze2")));
  const SubmitOutcome out2 = again.submit(request);
  ASSERT_TRUE(out2.accepted);
  const auto result2 = again.result(out2.id, 90.0);
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->lint_errors, result->lint_errors);
  EXPECT_EQ(result2->lint_warnings, result->lint_warnings);
}

}  // namespace
}  // namespace cstuner::serve
