#include "serve/protocol.hpp"

#include <bit>

#include "common/error.hpp"

namespace cstuner::serve {

namespace {

struct StateName {
  SessionState state;
  const char* name;
};

constexpr StateName kStateNames[] = {
    {SessionState::kQueued, "queued"},
    {SessionState::kRunning, "running"},
    {SessionState::kDone, "done"},
    {SessionState::kFailed, "failed"},
    {SessionState::kCancelled, "cancelled"},
    {SessionState::kExpired, "expired"},
    {SessionState::kInterrupted, "interrupted"},
};

}  // namespace

const char* session_state_name(SessionState state) {
  for (const auto& entry : kStateNames) {
    if (entry.state == state) return entry.name;
  }
  return "unknown";
}

SessionState session_state_from_name(const std::string& name) {
  for (const auto& entry : kStateNames) {
    if (name == entry.name) return entry.state;
  }
  throw Error("unknown session state: " + name);
}

bool session_state_final(SessionState state) {
  switch (state) {
    case SessionState::kDone:
    case SessionState::kFailed:
    case SessionState::kCancelled:
    case SessionState::kExpired:
      return true;
    case SessionState::kQueued:
    case SessionState::kRunning:
    case SessionState::kInterrupted:
      return false;
  }
  return false;
}

void TuneRequest::write_fields(JsonWriter& json) const {
  json.field("kind", kind)
      .field("stencil", stencil)
      .field("arch", arch)
      .field("method", method)
      .field("tenant", tenant)
      .field("seed", seed)
      .field("budget_s", budget_s)
      .field("deadline_s", deadline_s)
      .field("fault_rate", fault_rate)
      .field("universe", universe)
      .field("samples", samples);
  json.key("warm").begin_array();
  for (const std::int64_t v : warm) json.value(v);
  json.end_array();
}

TuneRequest TuneRequest::from_json(const JsonValue& v) {
  TuneRequest req;
  if (const JsonValue* m = v.find("kind")) req.kind = m->as_string();
  if (const JsonValue* m = v.find("stencil")) req.stencil = m->as_string();
  if (const JsonValue* m = v.find("arch")) req.arch = m->as_string();
  if (const JsonValue* m = v.find("method")) req.method = m->as_string();
  if (const JsonValue* m = v.find("tenant")) req.tenant = m->as_string();
  if (const JsonValue* m = v.find("seed")) req.seed = m->as_u64();
  if (const JsonValue* m = v.find("budget_s")) req.budget_s = m->as_double();
  if (const JsonValue* m = v.find("deadline_s")) {
    req.deadline_s = m->is_null() ? 0.0 : m->as_double();
  }
  if (const JsonValue* m = v.find("fault_rate")) {
    req.fault_rate = m->as_double();
  }
  if (const JsonValue* m = v.find("universe")) req.universe = m->as_u64();
  if (const JsonValue* m = v.find("samples")) req.samples = m->as_u64();
  if (const JsonValue* m = v.find("warm")) {
    for (const JsonValue& item : m->as_array()) {
      req.warm.push_back(item.as_i64());
    }
  }
  if (req.kind != "tune" && req.kind != "analyze") {
    throw Error("unknown request kind: " + req.kind);
  }
  return req;
}

double SessionResult::best_time_ms() const {
  return std::bit_cast<double>(best_time_bits);
}

double SessionResult::virtual_time_s() const {
  return std::bit_cast<double>(virtual_time_bits);
}

void SessionResult::write_fields(JsonWriter& json) const {
  json.field("state", std::string(session_state_name(state)))
      .field("best_time_bits", best_time_bits)
      .field("best_time_ms", best_time_ms())
      .field("best_setting", best_setting)
      .field("evaluations", evaluations)
      .field("iterations", iterations)
      .field("virtual_time_bits", virtual_time_bits)
      .field("virtual_time_s", virtual_time_s())
      .field("lint_errors", lint_errors)
      .field("lint_warnings", lint_warnings)
      .field("error", error);
}

SessionResult SessionResult::from_json(const JsonValue& v) {
  SessionResult result;
  result.state = session_state_from_name(v.at("state").as_string());
  // The *_bits members are authoritative; the _ms/_s doubles beside them
  // exist for human readers only and are ignored on load.
  result.best_time_bits = v.at("best_time_bits").as_u64();
  result.best_setting = v.at("best_setting").as_string();
  result.evaluations = v.at("evaluations").as_u64();
  result.iterations = v.at("iterations").as_u64();
  result.virtual_time_bits = v.at("virtual_time_bits").as_u64();
  if (const JsonValue* m = v.find("lint_errors")) {
    result.lint_errors = m->as_u64();
  }
  if (const JsonValue* m = v.find("lint_warnings")) {
    result.lint_warnings = m->as_u64();
  }
  if (const JsonValue* m = v.find("error")) result.error = m->as_string();
  return result;
}

void write_file_atomic(const std::string& path, const std::string& data,
                       io::Vfs* vfs) {
  io::write_file_atomic(vfs != nullptr ? *vfs : io::Vfs::real(), path, data);
}

std::string read_file(const std::string& path, io::Vfs* vfs) {
  return (vfs != nullptr ? *vfs : io::Vfs::real()).read_file(path);
}

}  // namespace cstuner::serve
