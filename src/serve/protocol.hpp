#pragma once
// Wire protocol of the tuning daemon (docs/serving.md): line-delimited JSON
// over TCP. Every request is one JSON object with an "op" member; every
// response is one JSON object with a "type" member. This header holds the
// typed request/result payloads shared by the server, the session manager,
// the on-disk session manifests, and the CLI client — the manifest IS the
// submit request plus the warm-start decision, so a re-adopted session
// replays from exactly what was admitted.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "io/vfs.hpp"

namespace cstuner::serve {

/// Lifecycle of one session. kInterrupted is the only non-final resting
/// state: the session was checkpointed by a drain (or found mid-flight
/// after a crash) and will be re-adopted — and resumed bit-identically —
/// by the next daemon start.
enum class SessionState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kExpired,      ///< per-request virtual-clock deadline fired
  kInterrupted,  ///< drained/crashed mid-run; resumable from its journal
};

const char* session_state_name(SessionState state);
SessionState session_state_from_name(const std::string& name);
/// Final states: the session will never run again (kInterrupted is not
/// final — restart re-adopts it).
bool session_state_final(SessionState state);

/// One tuning (or analysis) request, as submitted and as persisted in the
/// session manifest.
struct TuneRequest {
  std::string kind = "tune";  ///< "tune" | "analyze"
  std::string stencil = "j3d7pt";
  std::string arch = "a100";
  std::string method = "csTuner";
  std::string tenant = "default";
  std::uint64_t seed = 7;
  double budget_s = 60.0;   ///< virtual-time stop budget
  double deadline_s = 0.0;  ///< virtual-clock deadline; 0 disables
  double fault_rate = 0.0;
  std::uint64_t universe = 8000;
  std::uint64_t samples = 16;  ///< analyze sessions: settings analyzed
  /// Warm-start setting chosen at submit time (raw parameter values; empty
  /// = none). Pinned in the manifest so resume replays the same choice no
  /// matter how the warm store evolved since.
  std::vector<std::int64_t> warm;

  /// Serializes as a JSON object body (caller opens/closes the object).
  void write_fields(JsonWriter& json) const;
  /// Parses from a request or manifest object; unknown members are
  /// ignored, absent ones keep their defaults.
  static TuneRequest from_json(const JsonValue& v);
};

/// Terminal outcome of a session, as served to clients and persisted as
/// result.json. Times are IEEE-754 bit patterns so the kill-and-restart
/// acceptance test can compare results bit for bit.
struct SessionResult {
  SessionState state = SessionState::kDone;
  std::uint64_t best_time_bits = 0x7ff0000000000000ULL;  // +inf
  std::string best_setting;
  std::uint64_t evaluations = 0;
  std::uint64_t iterations = 0;
  std::uint64_t virtual_time_bits = 0;
  std::uint64_t lint_errors = 0;    ///< analyze sessions
  std::uint64_t lint_warnings = 0;  ///< analyze sessions
  std::string error;

  double best_time_ms() const;
  double virtual_time_s() const;

  void write_fields(JsonWriter& json) const;
  static SessionResult from_json(const JsonValue& v);
};

/// Durably writes `data` to `path` via tmp + fsync + rename + parent-dir
/// fsync (io::write_file_atomic): readers see the old file or the new one,
/// never a torn write, and the publication survives a power cut. The same
/// discipline as checkpoint snapshots — manifests, results and the warm
/// store all publish through this. `vfs` defaults to the real filesystem.
void write_file_atomic(const std::string& path, const std::string& data,
                       io::Vfs* vfs = nullptr);

/// Whole-file read; throws cstuner::Error when unreadable.
std::string read_file(const std::string& path, io::Vfs* vfs = nullptr);

}  // namespace cstuner::serve
