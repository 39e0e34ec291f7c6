#include "tuner/checkpoint.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace cstuner::tuner {

double JournalEntry::time_ms() const {
  return std::bit_cast<double>(time_bits);
}

EvalResult JournalEntry::to_result() const {
  EvalResult r;
  r.status = status;
  r.time_ms = time_ms();
  r.attempts = attempts;
  return r;
}

namespace {

EvalStatus status_from_name(const std::string& name) {
  for (int s = 0; s <= static_cast<int>(EvalStatus::kQuarantined); ++s) {
    if (name == eval_status_name(static_cast<EvalStatus>(s))) {
      return static_cast<EvalStatus>(s);
    }
  }
  throw Error("unknown eval status in journal: " + name);
}

std::string format_journal_line(const JournalEntry& e) {
  JsonWriter json;
  json.begin_object();
  json.field("key", e.key);
  json.field("status", eval_status_name(e.status));
  json.field("time_bits", e.time_bits);
  json.field("attempts", static_cast<std::uint64_t>(e.attempts));
  json.field("overhead_ticks", static_cast<std::int64_t>(e.overhead_ticks));
  json.end_object();
  return json.str() + "\n";
}

JournalEntry parse_journal_line(const JsonValue& v) {
  JournalEntry e;
  e.key = v.at("key").as_u64();
  e.status = status_from_name(v.at("status").as_string());
  e.time_bits = v.at("time_bits").as_u64();
  e.attempts = static_cast<std::uint8_t>(v.at("attempts").as_u64());
  e.overhead_ticks = v.at("overhead_ticks").as_i64();
  return e;
}

std::string format_island_event_line(const IslandEvent& e) {
  JsonWriter json;
  json.begin_object();
  json.field("island_event", island_event_kind_name(e.kind));
  json.field("rank", static_cast<std::int64_t>(e.rank));
  json.field("generation", e.generation);
  json.field("peer", static_cast<std::int64_t>(e.peer));
  json.end_object();
  return json.str() + "\n";
}

IslandEvent parse_island_event(const JsonValue& v) {
  IslandEvent e;
  e.kind = island_event_kind_from_name(v.at("island_event").as_string());
  e.rank = static_cast<int>(v.at("rank").as_i64());
  e.generation = v.at("generation").as_u64();
  e.peer = static_cast<int>(v.at("peer").as_i64());
  return e;
}

std::tuple<int, int, std::uint64_t, int> event_key(const IslandEvent& e) {
  return {static_cast<int>(e.kind), e.rank, e.generation, e.peer};
}

/// Reruns a Vfs operation as a checkpoint operation: any storage failure
/// surfaces as CheckpointError, the typed, non-poisoning signal callers
/// degrade on (a failed flush must never masquerade as a tuning bug).
template <typename Fn>
auto guard(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const io::VfsError& e) {
    throw CheckpointError(std::string(what) + ": " + e.what());
  }
}

}  // namespace

// Journal write half: buffered lines plus the open append handle. A Vfs
// handle instead of an ofstream because SyncPolicy::kEvery needs fsync,
// which streams cannot express.
struct Checkpoint::Writer {
  std::vector<std::string> pending;
  io::Vfs::Handle handle = -1;
  bool open = false;
};

Checkpoint::Checkpoint(std::string directory, io::Vfs* vfs)
    : directory_(std::move(directory)),
      vfs_(vfs != nullptr ? vfs : &io::Vfs::real()),
      writer_(new Writer) {
  guard("cannot create checkpoint dir",
        [&] { vfs_->mkdirs(directory_); });
}

Checkpoint::~Checkpoint() {
  try {
    flush();
  } catch (...) {
    // Destructor must not throw; an unflushed tail just loses the last
    // batch, which resume tolerates by design.
  }
  if (writer_->open) {
    try {
      vfs_->close(writer_->handle);
    } catch (...) {
      // Nothing useful to do with a failed close on teardown.
    }
  }
  delete writer_;
}

std::string Checkpoint::journal_path() const {
  return directory_ + "/journal.jsonl";
}

std::string Checkpoint::snapshot_path() const {
  return directory_ + "/snapshot.json";
}

std::string Checkpoint::snapshot_prev_path() const {
  return directory_ + "/snapshot.prev.json";
}

bool Checkpoint::has_journal_file() const {
  return guard("cannot stat journal",
               [&] { return vfs_->exists(journal_path()); });
}

std::size_t Checkpoint::load() {
  replay_.clear();
  island_events_.clear();
  known_events_.clear();
  loaded_dataset_.reset();
  loaded_stats_.reset();
  loaded_optimizer_name_.clear();

  // Snapshot first. The rename publication makes it complete-or-absent on
  // POSIX semantics; a torn or corrupt snapshot.json (crash mid-write on a
  // weaker filesystem, disk damage) falls back to the preserved previous
  // good snapshot instead of aborting the resume.
  if (!try_load_snapshot(snapshot_path())) {
    if (try_load_snapshot(snapshot_prev_path())) {
      CSTUNER_OBS_COUNT("checkpoint.snapshot_fallbacks", 1);
    }
  }

  // Journal: accept every complete line; a torn tail (kill mid-write) is
  // truncated away so subsequent appends produce a well-formed file.
  if (guard("cannot stat journal",
            [&] { return vfs_->exists(journal_path()); })) {
    const std::string text = guard(
        "cannot read journal", [&] { return vfs_->read_file(journal_path()); });
    std::size_t valid = 0;  // byte offset past the last complete good line
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) break;  // no terminator: torn tail
      const std::string_view line(text.data() + pos, nl - pos);
      try {
        JsonValue v = json_parse(line);
        if (v.find("island_event") != nullptr) {
          IslandEvent e = parse_island_event(v);
          if (known_events_.insert(event_key(e)).second) {
            island_events_.push_back(e);
          }
        } else {
          JournalEntry e = parse_journal_line(v);
          replay_.emplace(e.key, e);  // first occurrence wins
        }
      } catch (const Error&) {
        break;  // torn or corrupt line: drop it and everything after
      }
      pos = valid = nl + 1;
    }
    if (valid < text.size()) {
      CSTUNER_OBS_COUNT("checkpoint.torn_tail_truncations", 1);
      guard("cannot truncate torn journal",
            [&] { vfs_->truncate(journal_path(), valid); });
    }
  }
  return replay_.size();
}

bool Checkpoint::try_load_snapshot(const std::string& path) {
  try {
    if (!vfs_->exists(path)) return false;
  } catch (const io::VfsError&) {
    return false;
  }
  // Parse into locals first: a snapshot that tears between the dataset and
  // the evaluator state must not leave half-loaded fields behind when the
  // caller falls back to the previous snapshot.
  std::optional<PerfDataset> dataset;
  std::optional<FaultStats> stats;
  std::string optimizer_name;
  try {
    JsonValue snap = json_parse(vfs_->read_file(path));
    if (const JsonValue* ds = snap.find("dataset"); ds && !ds->is_null()) {
      dataset = parse_dataset(*ds);
    }
    if (const JsonValue* ev = snap.find("evaluator"); ev && !ev->is_null()) {
      if (const JsonValue* st = ev->find("stats")) {
        stats = FaultStats::from_json(*st);
      }
    }
    if (const JsonValue* op = snap.find("optimizer"); op && op->is_object()) {
      if (const JsonValue* name = op->find("optimizer")) {
        optimizer_name = name->as_string();
      }
    }
  } catch (const Error&) {
    return false;  // torn or corrupt: caller tries the previous snapshot
  }
  loaded_dataset_ = std::move(dataset);
  loaded_stats_ = std::move(stats);
  loaded_optimizer_name_ = std::move(optimizer_name);
  if (loaded_dataset_.has_value()) {
    // Re-register so the resumed run's snapshots keep embedding it even
    // if the caller never calls set_dataset_json again.
    dataset_json_ = serialize_dataset(*loaded_dataset_);
  }
  return true;
}

void Checkpoint::set_sync_policy(SyncPolicy policy) { sync_policy_ = policy; }

void Checkpoint::append(const JournalEntry& entry) {
  CSTUNER_OBS_COUNT("checkpoint.appends", 1);
  std::string line = format_journal_line(entry);
  std::lock_guard<std::mutex> lock(writer_mutex_);
  writer_->pending.push_back(std::move(line));
  if (sync_policy_ == SyncPolicy::kEvery) flush_locked(true);
}

void Checkpoint::append_island_event(const IslandEvent& event) {
  std::string line = format_island_event_line(event);
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // A resumed run re-fires its journaled kills and re-emits the matching
  // events; dropping the duplicates keeps the journal stable across any
  // number of resume cycles.
  if (!known_events_.insert(event_key(event)).second) return;
  island_events_.push_back(event);
  CSTUNER_OBS_COUNT("checkpoint.island_events", 1);
  writer_->pending.push_back(std::move(line));
  if (sync_policy_ == SyncPolicy::kEvery) flush_locked(true);
}

void Checkpoint::flush() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  flush_locked(sync_policy_ == SyncPolicy::kEvery);
}

void Checkpoint::flush_locked(bool sync) {
  if (writer_->pending.empty()) return;
  CSTUNER_TRACE_SPAN("io", "checkpoint.flush");
  CSTUNER_OBS_COUNT("checkpoint.flushes", 1);
  if (!writer_->open) {
    writer_->handle = guard("cannot open journal", [&] {
      return vfs_->open(journal_path(), io::Vfs::OpenMode::kAppend);
    });
    writer_->open = true;
    // Make the journal's directory entry itself durable: without this a
    // power cut right after the first flush could lose the whole file even
    // though its bytes were fsync'd (the entry never reached the platter).
    guard("cannot sync checkpoint dir", [&] { vfs_->fsync_dir(directory_); });
  }
  // One write per flush: appends of complete lines keep the torn-tail
  // window to the final line, which load() already truncates away.
  std::string block;
  for (const std::string& line : writer_->pending) block += line;
  guard("journal write failed",
        [&] { vfs_->write_all(writer_->handle, block); });
  writer_->pending.clear();
  if (sync) {
    guard("journal fsync failed", [&] { vfs_->fsync(writer_->handle); });
  }
}

void Checkpoint::set_dataset_json(std::string dataset_json) {
  dataset_json_ = std::move(dataset_json);
}

void Checkpoint::bind_tuner(const std::string& name) {
  if (!loaded_optimizer_name_.empty() && loaded_optimizer_name_ != name) {
    throw UsageError("checkpoint " + directory_ + " was written by '" +
                     loaded_optimizer_name_ + "'; cannot resume it with '" +
                     name + "'");
  }
  JsonWriter json;
  json.begin_object();
  json.field("optimizer", name);
  json.end_object();
  optimizer_state_json_ = json.str();
}

void Checkpoint::set_optimizer_state_json(std::string state_json) {
  optimizer_state_json_ = std::move(state_json);
}

void Checkpoint::write_snapshot(const std::string& evaluator_json) {
  CSTUNER_TRACE_SPAN("io", "checkpoint.snapshot");
  CSTUNER_OBS_COUNT("checkpoint.snapshots", 1);
  JsonWriter json;
  json.begin_object();
  json.field("format", std::int64_t{1});
  json.raw_field("dataset", dataset_json_);
  json.raw_field("evaluator", evaluator_json);
  json.raw_field("optimizer", optimizer_state_json_);
  json.end_object();

  guard("cannot publish snapshot", [&] {
    const std::string tmp = snapshot_path() + ".tmp";
    vfs_->write_file_synced(tmp, json.str());
    // Preserve the previous good snapshot before publishing the new one,
    // so a snapshot torn by a crash at any point — even one that slips
    // past the rename barrier on a non-atomic filesystem — can always
    // recover from the .prev copy. Best effort by copy_file's contract:
    // losing the fallback only narrows recovery back to the rename's own
    // atomicity.
    if (vfs_->exists(snapshot_path())) {
      vfs_->unlink(snapshot_prev_path());
      vfs_->copy_file(snapshot_path(), snapshot_prev_path());
    }
    vfs_->rename(tmp, snapshot_path());
    // The rename reached the directory, not the platter: sync the parent
    // so a power cut cannot roll the publication back.
    vfs_->fsync_dir(directory_);
  });
}

void Checkpoint::set_snapshot_interval(int interval) {
  snapshot_interval_ = interval > 0 ? interval : 1;
}

std::string serialize_dataset(const PerfDataset& dataset) {
  JsonWriter json;
  json.begin_object();
  json.key("settings").begin_array();
  for (const auto& s : dataset.settings) {
    json.begin_array();
    for (std::int64_t v : s.raw()) json.value(v);
    json.end_array();
  }
  json.end_array();
  json.key("times_bits").begin_array();
  for (double t : dataset.times_ms) json.value(std::bit_cast<std::uint64_t>(t));
  json.end_array();
  json.key("metrics").begin_object();
  json.field("rows", static_cast<std::uint64_t>(dataset.metrics.rows()));
  json.field("cols", static_cast<std::uint64_t>(dataset.metrics.cols()));
  json.key("bits").begin_array();
  for (std::size_t r = 0; r < dataset.metrics.rows(); ++r) {
    for (std::size_t c = 0; c < dataset.metrics.cols(); ++c) {
      json.value(std::bit_cast<std::uint64_t>(dataset.metrics(r, c)));
    }
  }
  json.end_array();
  json.end_object();
  json.end_object();
  return json.str();
}

PerfDataset parse_dataset(const JsonValue& value) {
  PerfDataset ds;
  for (const JsonValue& row : value.at("settings").as_array()) {
    const auto& vals = row.as_array();
    if (vals.size() != space::kParamCount) {
      throw Error("dataset setting has wrong arity");
    }
    space::Setting s;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      s.set(static_cast<space::ParamId>(i), vals[i].as_i64());
    }
    ds.settings.push_back(s);
  }
  for (const JsonValue& t : value.at("times_bits").as_array()) {
    ds.times_ms.push_back(std::bit_cast<double>(t.as_u64()));
  }
  const JsonValue& m = value.at("metrics");
  const std::size_t rows = m.at("rows").as_u64();
  const std::size_t cols = m.at("cols").as_u64();
  const auto& bits = m.at("bits").as_array();
  if (bits.size() != rows * cols) throw Error("dataset metrics size mismatch");
  ds.metrics = regress::Matrix(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      ds.metrics(r, c) = std::bit_cast<double>(bits[r * cols + c].as_u64());
    }
  }
  if (ds.settings.size() != ds.times_ms.size() ||
      (rows != ds.settings.size() && rows != 0)) {
    throw Error("dataset row counts disagree");
  }
  return ds;
}

}  // namespace cstuner::tuner
