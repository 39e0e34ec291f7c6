#pragma once
// Crash-safe checkpointing of a tuning run (docs/fault-tolerance.md).
//
// Two complementary artifacts live in the checkpoint directory:
//
//   journal.jsonl   An append-only log with one JSON line per *committed*
//                   evaluation (key, status, time bits, attempts, fault
//                   overhead). Appended in commit order — which the
//                   evaluator keeps deterministic — and flushed at every
//                   iteration mark, so a kill loses at most the current
//                   batch. A torn final line (killed mid-write) is detected
//                   and truncated on load.
//
//   snapshot.json   A periodic whole-state snapshot: RNG/seed identity,
//                   the performance dataset (bit-exact doubles), the
//                   quarantine list, failure statistics, and the name of
//                   the optimizer that wrote it. Written
//                   atomically (write temp + rename), so a reader always
//                   sees either the old or the new snapshot, never a torn
//                   one.
//
// Resume = memoized replay. Measurements recorded in the journal are
// served back to the evaluator instead of being re-simulated, while the
// tuner's deterministic control flow replays from its seed; the virtual
// clock, best-so-far, quarantine and statistics therefore evolve exactly
// as in the original run, and the continuation past the kill point is
// bit-identical to an uninterrupted run. The snapshot spares the resumed
// run the offline dataset collection and preserves the audit state.

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "io/vfs.hpp"
#include "tuner/dataset.hpp"
#include "tuner/fault.hpp"

namespace cstuner::tuner {

/// Typed wrapper for storage failures inside the checkpoint layer. Every
/// io::VfsError crossing the Checkpoint boundary is rethrown as this, so
/// callers (the serve session runner, the tune CLI) can degrade the one
/// affected run — mark the session failed, keep serving — without ever
/// confusing a disk problem with a tuning bug or poisoning shared
/// evaluator state.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

/// One committed evaluation, as journaled. `time_bits` is the IEEE-754 bit
/// pattern of the result time (the bit pattern of +inf for failures), so
/// the round trip is exact; `overhead_ticks` is the fault overhead charged
/// at commit, in virtual picoseconds.
struct JournalEntry {
  std::uint64_t key = 0;
  EvalStatus status = EvalStatus::kOk;
  std::uint64_t time_bits = 0;
  std::uint8_t attempts = 0;
  std::int64_t overhead_ticks = 0;

  double time_ms() const;
  EvalResult to_result() const;
};

/// Owns the checkpoint directory: journal appends, atomic snapshots, and
/// loading both on resume. Writes are serialized internally, so the
/// evaluator may call append() from its (already commit-ordered) commit
/// path without extra locking.
class Checkpoint {
 public:
  /// Opens (and creates if needed) the checkpoint directory. Nothing is
  /// read; call load() first to resume. All I/O goes through `vfs`
  /// (defaulting to the real filesystem), so tests and the crash sweep can
  /// substitute a FaultVfs.
  explicit Checkpoint(std::string directory, io::Vfs* vfs = nullptr);
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  const std::string& directory() const { return directory_; }

  /// True if the journal file exists on disk. `cstuner tune --resume`
  /// refuses to run without one: silently starting a fresh run when the
  /// user asked to continue an old one would discard their intent.
  bool has_journal_file() const;
  /// The journal path (for error messages).
  std::string journal_file() const { return journal_path(); }

  /// Loads journal + snapshot from the directory. Tolerates a missing
  /// snapshot, a missing journal, and a torn journal tail (the file is
  /// truncated back to the last complete line before appends resume).
  /// Returns the number of journal entries recovered.
  std::size_t load();

  /// Journal entries recovered by load(), deduplicated by key (first
  /// occurrence wins; repeat encounters of a transient-failing setting
  /// re-serve the same deterministic outcome).
  const std::unordered_map<std::uint64_t, JournalEntry>& replay() const {
    return replay_;
  }

  /// Journal durability policy (--checkpoint-sync):
  ///   kBatch  appends buffer in memory until the next flush(), which
  ///           writes them without fsync — a kill loses at most the batch
  ///           since the last iteration mark (the historical behavior);
  ///   kEvery  every append is written AND fsync'd immediately — nothing
  ///           committed is ever lost, at one fsync per evaluation.
  /// Snapshots are fsync'd before publication under both policies.
  enum class SyncPolicy { kBatch, kEvery };
  void set_sync_policy(SyncPolicy policy);
  SyncPolicy sync_policy() const { return sync_policy_; }

  /// Appends one committed evaluation. Buffered; becomes durable at the
  /// next flush() (immediately under SyncPolicy::kEvery). Thread-safe:
  /// concurrent GA islands commit and journal island events from their own
  /// threads.
  void append(const JournalEntry& entry);

  /// Appends one island recovery event (rank death, ring heal, elite
  /// adoption) so a degraded run resumes bit-identically: on --resume the
  /// journaled deaths are folded back into the kill plan. Duplicate events
  /// (a resumed run replays its kills and re-emits them) are dropped.
  /// Thread-safe.
  void append_island_event(const IslandEvent& event);

  /// Island events recovered by load(), in journal order.
  const std::vector<IslandEvent>& island_events() const {
    return island_events_;
  }

  /// Flushes buffered journal lines to disk (called at iteration marks).
  /// Thread-safe.
  void flush();

  /// Registers the serialized performance dataset to embed in snapshots
  /// (CsTuner calls this once the dataset exists).
  void set_dataset_json(std::string dataset_json);
  bool has_dataset() const { return loaded_dataset_.has_value(); }
  /// Dataset recovered from a loaded snapshot, if any.
  const std::optional<PerfDataset>& loaded_dataset() const {
    return loaded_dataset_;
  }

  /// Claims the checkpoint for the tuner `name` (a registry optimizer name
  /// or "csTuner"); every tuner calls this before any offline stage.
  /// Resume is journal replay, which only reproduces the run of the tuner
  /// that wrote the journal, so a loaded snapshot naming a different tuner
  /// throws UsageError naming both. A snapshot naming none (an older
  /// build's csTuner run) resumes under any tuner. Snapshots written from
  /// now on name `name`.
  void bind_tuner(const std::string& name);

  /// Registers the optimizer's {optimizer, steps} record to embed in
  /// snapshots. The search driver (search/optimizer.cpp) refreshes it at
  /// every iteration boundary, just before the mark flushes the journal.
  /// Resume never restores optimizer state from it — every optimizer
  /// resumes by journal replay — it only records who wrote the checkpoint.
  void set_optimizer_state_json(std::string state_json);
  /// Name of the tuner that wrote the loaded snapshot; empty when there is
  /// none (no snapshot, or an older build's csTuner snapshot).
  /// Snapshots from older builds that also carry native optimizer state
  /// load the same: only the name is read.
  const std::string& loaded_optimizer_name() const {
    return loaded_optimizer_name_;
  }

  /// Atomically writes snapshot.json (write temp, fsync, rename). The
  /// previous good snapshot is preserved as snapshot.prev.json first, so a
  /// snapshot torn by a crash at any point — even one that slips past the
  /// rename barrier on a non-atomic filesystem — recovers to the last good
  /// state on load(). `evaluator_json` is the evaluator's serialized
  /// mutable state (quarantine, statistics, counters).
  void write_snapshot(const std::string& evaluator_json);

  /// Snapshot interval: write_snapshot is invoked by the evaluator every
  /// this many iteration marks.
  int snapshot_interval() const { return snapshot_interval_; }
  void set_snapshot_interval(int interval);

  /// Fault statistics recovered from a loaded snapshot (informational;
  /// replay rebuilds the live counters).
  const std::optional<FaultStats>& loaded_stats() const {
    return loaded_stats_;
  }

 private:
  std::string journal_path() const;
  std::string snapshot_path() const;
  std::string snapshot_prev_path() const;
  /// Parses one snapshot file into the loaded_* fields; returns false
  /// (mutating nothing) when the file is absent, torn or corrupt.
  bool try_load_snapshot(const std::string& path);
  /// Writes pending journal lines with writer_mutex_ held; fsyncs when
  /// `sync` is set.
  void flush_locked(bool sync);

  std::string directory_;
  io::Vfs* vfs_;
  int snapshot_interval_ = 8;
  SyncPolicy sync_policy_ = SyncPolicy::kBatch;
  std::string dataset_json_ = "null";
  std::string optimizer_state_json_ = "null";

  std::unordered_map<std::uint64_t, JournalEntry> replay_;
  std::vector<IslandEvent> island_events_;
  /// Every island event this checkpoint knows about (loaded or appended),
  /// keyed by (kind, rank, generation, peer) — the dedup set behind
  /// append_island_event.
  std::set<std::tuple<int, int, std::uint64_t, int>> known_events_;
  std::optional<PerfDataset> loaded_dataset_;
  std::optional<FaultStats> loaded_stats_;
  std::string loaded_optimizer_name_;

  // Journal write half: buffered lines + the open append stream. The mutex
  // serializes appends/flushes from concurrent island threads.
  std::mutex writer_mutex_;
  struct Writer;
  Writer* writer_;
};

/// Bit-exact JSON round trip for the performance dataset: times and
/// metrics are stored as IEEE-754 bit patterns, settings as value rows.
std::string serialize_dataset(const PerfDataset& dataset);
PerfDataset parse_dataset(const JsonValue& value);

}  // namespace cstuner::tuner
