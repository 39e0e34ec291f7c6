#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/fault_model.hpp"
#include "stencil/stencils.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/dataset.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::tuner {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstuner_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

JournalEntry make_entry(std::uint64_t key, EvalStatus status, double time_ms,
                        std::uint8_t attempts, std::int64_t overhead_ticks) {
  JournalEntry e;
  e.key = key;
  e.status = status;
  e.time_bits = std::bit_cast<std::uint64_t>(time_ms);
  e.attempts = attempts;
  e.overhead_ticks = overhead_ticks;
  return e;
}

TEST(Checkpoint, LoadOnEmptyDirectoryIsCleanSlate) {
  Checkpoint cp(fresh_dir("empty"));
  EXPECT_EQ(cp.load(), 0u);
  EXPECT_TRUE(cp.replay().empty());
  EXPECT_FALSE(cp.loaded_dataset().has_value());
  EXPECT_FALSE(cp.loaded_stats().has_value());
}

TEST(Checkpoint, JournalRoundTripsAndFirstOccurrenceWins) {
  const std::string dir = fresh_dir("journal");
  const double kInf = std::numeric_limits<double>::infinity();
  {
    Checkpoint cp(dir);
    cp.append(make_entry(1, EvalStatus::kOk, 3.25, 1, 0));
    cp.append(make_entry(2, EvalStatus::kCompileFail, kInf, 1, 250000000000));
    cp.append(make_entry(1, EvalStatus::kOk, 99.0, 2, 7));  // duplicate key
    cp.append(make_entry(3, EvalStatus::kTransient, kInf, 3, 468000000000));
    cp.flush();
  }
  Checkpoint cp(dir);
  EXPECT_EQ(cp.load(), 3u);  // 4 lines, 3 distinct keys
  const auto& replay = cp.replay();
  ASSERT_TRUE(replay.contains(1));
  EXPECT_EQ(replay.at(1).time_ms(), 3.25);  // first occurrence, not 99.0
  EXPECT_EQ(replay.at(1).attempts, 1);
  EXPECT_EQ(replay.at(2).status, EvalStatus::kCompileFail);
  EXPECT_TRUE(std::isinf(replay.at(2).time_ms()));
  EXPECT_EQ(replay.at(2).overhead_ticks, 250000000000);
  EXPECT_EQ(replay.at(3).status, EvalStatus::kTransient);
  EXPECT_EQ(replay.at(3).attempts, 3);
  EXPECT_EQ(replay.at(1).to_result().status, EvalStatus::kOk);
  EXPECT_EQ(replay.at(1).to_result().time_ms, 3.25);
}

TEST(Checkpoint, IslandEventsRoundTripAndDeduplicate) {
  const std::string dir = fresh_dir("island_events");
  {
    Checkpoint cp(dir);
    EXPECT_FALSE(cp.has_journal_file());
    cp.append(make_entry(1, EvalStatus::kOk, 3.25, 1, 0));
    cp.append_island_event({IslandEvent::Kind::kRankDeath, 1, 3, -1});
    cp.append_island_event({IslandEvent::Kind::kRingHeal, 2, 3, 1});
    cp.append_island_event({IslandEvent::Kind::kEliteAdoption, 2, 3, 1});
    // A resumed run re-fires the same kill and re-emits the event; the
    // journal must not grow a duplicate line.
    cp.append_island_event({IslandEvent::Kind::kRankDeath, 1, 3, -1});
    cp.flush();
    EXPECT_TRUE(cp.has_journal_file());
  }
  Checkpoint cp(dir);
  EXPECT_EQ(cp.load(), 1u);  // island events are not replay entries
  ASSERT_EQ(cp.island_events().size(), 3u);
  const IslandEvent& death = cp.island_events()[0];
  EXPECT_EQ(death.kind, IslandEvent::Kind::kRankDeath);
  EXPECT_EQ(death.rank, 1);
  EXPECT_EQ(death.generation, 3u);
  EXPECT_EQ(death.peer, -1);
  EXPECT_EQ(cp.island_events()[1].kind, IslandEvent::Kind::kRingHeal);
  EXPECT_EQ(cp.island_events()[1].peer, 1);
  EXPECT_EQ(cp.island_events()[2].kind, IslandEvent::Kind::kEliteAdoption);
  // The loaded events seed the dedup set, so appending them again after a
  // resume is also a no-op.
  cp.append_island_event({IslandEvent::Kind::kRankDeath, 1, 3, -1});
  cp.flush();
  Checkpoint again(dir);
  again.load();
  EXPECT_EQ(again.island_events().size(), 3u);
  // And the deaths convert back into the kill plan that caused them.
  const auto plan = kill_plan_from_events(again.island_events());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].rank, 1);
  EXPECT_EQ(plan[0].generation, 3u);
}

TEST(Checkpoint, TornJournalTailIsTruncatedOnLoad) {
  const std::string dir = fresh_dir("torn");
  {
    Checkpoint cp(dir);
    cp.append(make_entry(10, EvalStatus::kOk, 1.5, 1, 0));
    cp.append(make_entry(11, EvalStatus::kOk, 2.5, 1, 0));
    cp.flush();
  }
  const std::string journal = dir + "/journal.jsonl";
  const std::string intact = read_file(journal);
  {
    // Simulate a kill mid-write: half a JSON object, no newline.
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out << R"({"key":12,"status":"ok","time_b)";
  }
  Checkpoint cp(dir);
  EXPECT_EQ(cp.load(), 2u);
  // The torn tail is gone from disk, so future appends stay well-formed.
  EXPECT_EQ(read_file(journal), intact);
  cp.append(make_entry(13, EvalStatus::kOk, 4.5, 1, 0));
  cp.flush();
  Checkpoint again(dir);
  EXPECT_EQ(again.load(), 3u);
  EXPECT_TRUE(again.replay().contains(13));
  EXPECT_FALSE(again.replay().contains(12));
}

TEST(Checkpoint, DatasetSerializationIsBitExact) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(31);
  const PerfDataset dataset = collect_dataset(space, sim, 48, rng, nullptr);

  const std::string json = serialize_dataset(dataset);
  const PerfDataset back = parse_dataset(json_parse(json));
  ASSERT_EQ(back.settings.size(), dataset.settings.size());
  ASSERT_EQ(back.times_ms.size(), dataset.times_ms.size());
  ASSERT_EQ(back.metrics.rows(), dataset.metrics.rows());
  ASSERT_EQ(back.metrics.cols(), dataset.metrics.cols());
  for (std::size_t i = 0; i < dataset.settings.size(); ++i) {
    EXPECT_TRUE(back.settings[i] == dataset.settings[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.times_ms[i]),
              std::bit_cast<std::uint64_t>(dataset.times_ms[i]));
    for (std::size_t m = 0; m < dataset.metrics.cols(); ++m) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.metrics(i, m)),
                std::bit_cast<std::uint64_t>(dataset.metrics(i, m)));
    }
  }
}

TEST(Checkpoint, SnapshotIsAtomicAndLoadable) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(32);
  const PerfDataset dataset = collect_dataset(space, sim, 16, rng, nullptr);

  // Build some fault state to snapshot.
  Evaluator evaluator(sim, space, {}, 5, nullptr);
  gpusim::FaultConfig config;
  config.compile_fail_rate = 1.0;
  evaluator.set_fault_injection(config, "snap");
  evaluator.evaluate_result(space.random_valid(rng));

  const std::string dir = fresh_dir("snapshot");
  {
    Checkpoint cp(dir);
    cp.set_dataset_json(serialize_dataset(dataset));
    cp.write_snapshot(evaluator.serialize_state());
    cp.write_snapshot(evaluator.serialize_state());  // overwrite is fine
  }
  // write-temp + rename leaves no partial file behind.
  EXPECT_FALSE(fs::exists(dir + "/snapshot.json.tmp"));
  ASSERT_TRUE(fs::exists(dir + "/snapshot.json"));

  Checkpoint cp(dir);
  cp.load();
  ASSERT_TRUE(cp.loaded_dataset().has_value());
  EXPECT_TRUE(cp.has_dataset());
  ASSERT_EQ(cp.loaded_dataset()->settings.size(), dataset.settings.size());
  for (std::size_t i = 0; i < dataset.settings.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cp.loaded_dataset()->times_ms[i]),
              std::bit_cast<std::uint64_t>(dataset.times_ms[i]));
  }
  ASSERT_TRUE(cp.loaded_stats().has_value());
  EXPECT_EQ(cp.loaded_stats()->compile_fail, 1u);
  EXPECT_EQ(cp.loaded_stats()->quarantined_settings, 1u);
}

TEST(Checkpoint, SnapshotNamesItsOptimizerAndIgnoresLegacyState) {
  const std::string dir = fresh_dir("optimizer_name");
  {
    Checkpoint cp(dir);
    cp.write_snapshot("{}");  // no tuner record: an older csTuner run
  }
  Checkpoint unnamed(dir);
  unnamed.load();
  EXPECT_EQ(unnamed.loaded_optimizer_name(), "");
  // An unnamed snapshot resumes under any tuner, and from then on names it.
  EXPECT_NO_THROW(unnamed.bind_tuner("anneal"));
  unnamed.write_snapshot("{}");
  Checkpoint claimed(dir);
  claimed.load();
  EXPECT_EQ(claimed.loaded_optimizer_name(), "anneal");
  EXPECT_THROW(claimed.bind_tuner("csTuner"), UsageError);

  {
    // Older builds also stored the optimizer's walkers/populations; only
    // the name is read back.
    Checkpoint cp(dir);
    cp.set_optimizer_state_json(
        R"({"optimizer":"anneal","steps":3,"walkers":[[1,2]],)"
        R"("times_bits":[4607182418800017408]})");
    cp.write_snapshot("{}");
  }
  Checkpoint named(dir);
  named.load();
  EXPECT_EQ(named.loaded_optimizer_name(), "anneal");
}

TEST(Checkpoint, TornSnapshotRecoversPreviousGoodSnapshot) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  Rng rng(33);
  const PerfDataset first = collect_dataset(space, sim, 12, rng, nullptr);
  const PerfDataset second = collect_dataset(space, sim, 20, rng, nullptr);

  const std::string dir = fresh_dir("torn_snapshot");
  {
    Checkpoint cp(dir);
    cp.set_dataset_json(serialize_dataset(first));
    cp.write_snapshot("{}");
    cp.set_dataset_json(serialize_dataset(second));
    cp.write_snapshot("{}");  // demotes the first snapshot to .prev
  }
  ASSERT_TRUE(fs::exists(dir + "/snapshot.prev.json"));
  {
    // A crash that tears snapshot.json itself (e.g. rename promoted a file
    // whose data pages never hit disk): truncate it mid-object.
    const std::string torn =
        read_file(dir + "/snapshot.json").substr(0, 40);
    std::ofstream out(dir + "/snapshot.json",
                      std::ios::binary | std::ios::trunc);
    out << torn;
  }
  Checkpoint cp(dir);
  cp.load();
  ASSERT_TRUE(cp.loaded_dataset().has_value());
  // The torn current snapshot is skipped; the previous good one answers.
  EXPECT_EQ(cp.loaded_dataset()->settings.size(), first.settings.size());
  for (std::size_t i = 0; i < first.settings.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cp.loaded_dataset()->times_ms[i]),
              std::bit_cast<std::uint64_t>(first.times_ms[i]));
  }
}

TEST(Checkpoint, SyncEveryMakesAppendsDurableWithoutFlush) {
  const std::string dir = fresh_dir("sync_every");
  Checkpoint cp(dir);
  cp.set_sync_policy(Checkpoint::SyncPolicy::kEvery);
  cp.append(make_entry(1, EvalStatus::kOk, 1.25, 1, 0));
  cp.append(make_entry(2, EvalStatus::kOk, 2.5, 1, 0));
  // No flush(), no destructor: a SIGKILL here must lose nothing. A second
  // reader sees both entries already on disk.
  Checkpoint reader(dir);
  EXPECT_EQ(reader.load(), 2u);
  EXPECT_TRUE(reader.replay().contains(1));
  EXPECT_TRUE(reader.replay().contains(2));
}

TEST(Checkpoint, SyncBatchBuffersUntilFlush) {
  const std::string dir = fresh_dir("sync_batch");
  Checkpoint cp(dir);  // kBatch is the default
  EXPECT_EQ(cp.sync_policy(), Checkpoint::SyncPolicy::kBatch);
  cp.append(make_entry(1, EvalStatus::kOk, 1.25, 1, 0));
  {
    Checkpoint reader(dir);
    EXPECT_EQ(reader.load(), 0u);  // still buffered in memory
  }
  cp.flush();
  Checkpoint reader(dir);
  EXPECT_EQ(reader.load(), 1u);
}

// ---------------------------------------------------------------------------
// The acceptance test: kill a tune after a random batch, resume it, and the
// final state must be bit-identical to the uninterrupted run.
// ---------------------------------------------------------------------------

struct TuneFingerprint {
  space::Setting best_setting;
  double best_time_ms = 0.0;
  double virtual_time_s = 0.0;
  std::size_t unique_evals = 0;
  FaultStats stats;
};

TuneFingerprint run_tune(Checkpoint& checkpoint) {
  const auto spec = stencil::make_stencil("j3d7pt");
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  ThreadPool pool(2);
  Evaluator evaluator(sim, space, {}, 42, &pool);
  evaluator.set_fault_injection(gpusim::FaultConfig::uniform(0.2, 42),
                                spec.name);
  evaluator.set_checkpoint(&checkpoint);
  core::CsTunerOptions options;
  options.universe_size = 600;
  options.dataset_size = 48;
  options.seed = 42;
  core::CsTuner tuner(options);
  tuner.tune(evaluator, {.max_virtual_seconds = 6.0});
  checkpoint.flush();

  TuneFingerprint fp;
  fp.best_setting = *evaluator.best_setting();
  fp.best_time_ms = evaluator.best_time_ms();
  fp.virtual_time_s = evaluator.virtual_time_s();
  fp.unique_evals = evaluator.unique_evaluations();
  fp.stats = evaluator.fault_stats();
  return fp;
}

TEST(Checkpoint, KilledAndResumedTuneIsBitIdenticalToUninterrupted) {
  // Reference: one uninterrupted faulty tune.
  const std::string full_dir = fresh_dir("resume_full");
  Checkpoint full_cp(full_dir);
  ASSERT_EQ(full_cp.load(), 0u);
  const TuneFingerprint full = run_tune(full_cp);

  // Fabricate the kill: keep the journal prefix up to a randomly chosen
  // batch boundary and tear the next line mid-write — exactly the on-disk
  // state a SIGKILL between flushes leaves behind.
  const std::string journal = read_file(full_dir + "/journal.jsonl");
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < journal.size();) {
    const std::size_t nl = journal.find('\n', pos);
    lines.push_back(journal.substr(pos, nl - pos + 1));
    pos = nl + 1;
  }
  ASSERT_GT(lines.size(), 3u);
  Rng kill_rng(2026);
  const std::size_t keep = static_cast<std::size_t>(
      kill_rng.uniform_int(1, static_cast<std::int64_t>(lines.size()) - 2));

  const std::string resumed_dir = fresh_dir("resume_killed");
  fs::create_directories(resumed_dir);
  {
    std::ofstream out(resumed_dir + "/journal.jsonl", std::ios::binary);
    for (std::size_t i = 0; i < keep; ++i) out << lines[i];
    out << lines[keep].substr(0, lines[keep].size() / 2);  // torn tail
  }

  // Resume: journaled outcomes replay, the rest re-measures.
  Checkpoint resumed_cp(resumed_dir);
  const std::size_t replayed = resumed_cp.load();
  ASSERT_GT(replayed, 0u);
  ASSERT_LE(replayed, keep);  // duplicate keys deduplicate
  const TuneFingerprint resumed = run_tune(resumed_cp);

  EXPECT_TRUE(full.best_setting == resumed.best_setting);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(full.best_time_ms),
            std::bit_cast<std::uint64_t>(resumed.best_time_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(full.virtual_time_s),
            std::bit_cast<std::uint64_t>(resumed.virtual_time_s));
  EXPECT_EQ(full.unique_evals, resumed.unique_evals);
  EXPECT_EQ(full.stats.compile_fail, resumed.stats.compile_fail);
  EXPECT_EQ(full.stats.crash, resumed.stats.crash);
  EXPECT_EQ(full.stats.timeout, resumed.stats.timeout);
  EXPECT_EQ(full.stats.transient, resumed.stats.transient);
  EXPECT_EQ(full.stats.retries, resumed.stats.retries);
  EXPECT_EQ(full.stats.recovered, resumed.stats.recovered);
  EXPECT_EQ(full.stats.quarantined_settings,
            resumed.stats.quarantined_settings);
  EXPECT_EQ(full.stats.quarantine_hits, resumed.stats.quarantine_hits);
  EXPECT_DOUBLE_EQ(full.stats.fault_overhead_s,
                   resumed.stats.fault_overhead_s);
  // The resumed run served the recovered prefix from the journal. (A
  // non-cacheable transient entry replays once per re-evaluation, so the
  // counter can exceed the deduplicated journal size.)
  EXPECT_GE(resumed.stats.replayed, replayed);
  EXPECT_EQ(full.stats.replayed, 0u);

  // The two journals describe the same evaluation history (the resumed one
  // may omit duplicate-key lines that straddle the kill point, so compare
  // the deduplicated replay maps, not raw bytes).
  Checkpoint check_full(full_dir);
  Checkpoint check_resumed(resumed_dir);
  ASSERT_EQ(check_full.load(), check_resumed.load());
  for (const auto& [key, entry] : check_full.replay()) {
    const auto it = check_resumed.replay().find(key);
    ASSERT_NE(it, check_resumed.replay().end()) << "key " << key;
    EXPECT_EQ(it->second.status, entry.status);
    EXPECT_EQ(it->second.time_bits, entry.time_bits);
    EXPECT_EQ(it->second.attempts, entry.attempts);
    EXPECT_EQ(it->second.overhead_ticks, entry.overhead_ticks);
  }
}

}  // namespace
}  // namespace cstuner::tuner
