// Self-checks of the benchmark's own C++ logic: the timing Vfs forwards
// every operation and counts fsyncs exactly as the io.fsyncs counter does,
// and the traced zoo driver reproduces run_optimizer bit for bit.

#include <filesystem>
#include <iostream>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/simulator.hpp"
#include "io/fault_vfs.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "search/registry.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"
#include "timing_vfs.hpp"

namespace perfbench {

using namespace cstuner;

namespace {

/// Records the name of every call, then forwards it.
class RecordingVfs final : public io::Vfs {
 public:
  explicit RecordingVfs(io::Vfs& inner) : inner_(inner) {}
  std::vector<std::string> calls;

  std::string read_file(const std::string& p) override {
    calls.push_back("read_file");
    return inner_.read_file(p);
  }
  bool exists(const std::string& p) override {
    calls.push_back("exists");
    return inner_.exists(p);
  }
  void mkdirs(const std::string& p) override {
    calls.push_back("mkdirs");
    inner_.mkdirs(p);
  }
  std::vector<std::string> list_dir(const std::string& p) override {
    calls.push_back("list_dir");
    return inner_.list_dir(p);
  }
  void rename(const std::string& a, const std::string& b) override {
    calls.push_back("rename");
    inner_.rename(a, b);
  }
  void unlink(const std::string& p) override {
    calls.push_back("unlink");
    inner_.unlink(p);
  }
  void truncate(const std::string& p, std::uint64_t n) override {
    calls.push_back("truncate");
    inner_.truncate(p, n);
  }
  void fsync_dir(const std::string& p) override {
    calls.push_back("fsync_dir");
    inner_.fsync_dir(p);
  }
  void copy_file(const std::string& a, const std::string& b) override {
    calls.push_back("copy_file");
    inner_.copy_file(a, b);
  }
  Handle open(const std::string& p, OpenMode m) override {
    calls.push_back("open");
    return inner_.open(p, m);
  }
  std::size_t write(Handle h, const char* d, std::size_t n) override {
    calls.push_back("write");
    return inner_.write(h, d, n);
  }
  void fsync(Handle h) override {
    calls.push_back("fsync");
    inner_.fsync(h);
  }
  void close(Handle h) override {
    calls.push_back("close");
    inner_.close(h);
  }

 private:
  io::Vfs& inner_;
};

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << '\n';
  if (!ok) ++failures;
}

void timing_vfs_forwards_every_op() {
  io::FaultVfs memory;
  RecordingVfs recording(memory);
  TimingVfs vfs(recording);
  vfs.mkdirs("d");
  const io::Vfs::Handle h = vfs.open("d/a", io::Vfs::OpenMode::kTruncate);
  vfs.write_all(h, "hello");
  vfs.fsync(h);
  vfs.close(h);
  vfs.fsync_dir("d");
  const bool exists = vfs.exists("d/a");
  vfs.rename("d/a", "d/b");
  vfs.copy_file("d/b", "d/c");
  vfs.truncate("d/c", 2);
  const std::string b = vfs.read_file("d/b");
  const std::string c = vfs.read_file("d/c");
  vfs.unlink("d/b");
  const std::vector<std::string> names = vfs.list_dir("d");

  const std::vector<std::string> expected = {
      "mkdirs", "open",   "write",     "fsync",    "close",
      "fsync_dir", "exists", "rename", "copy_file", "truncate",
      "read_file", "read_file", "unlink", "list_dir"};
  check(recording.calls == expected,
        "TimingVfs forwards each of the 13 Vfs operations, in order");
  const TimingVfs::Totals t = vfs.totals();
  check(t.ops == expected.size(), "TimingVfs counts every forwarded call");
  check(t.fsyncs == 2 && t.bytes_written == 5,
        "TimingVfs counts fsync+fsync_dir and bytes written");
  check(exists && b == "hello" && c == "he" &&
            names == std::vector<std::string>{"c"},
        "TimingVfs returns the inner Vfs's results unchanged");
}

void timing_vfs_fsyncs_match_counter(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TimingVfs vfs(io::Vfs::real());
  obs::Counter& counter = obs::metrics().counter("io.fsyncs");
  const std::uint64_t before = counter.value();
  io::write_file_atomic(vfs, dir + "/x.json", "{}");
  vfs.write_file_synced(dir + "/y", "data");
  const io::Vfs::Handle h = vfs.open(dir + "/z", io::Vfs::OpenMode::kAppend);
  vfs.write_all(h, "z");
  vfs.fsync(h);
  vfs.close(h);
  const std::uint64_t counted = counter.value() - before;
  check(vfs.totals().fsyncs == counted && counted >= 4,
        "TimingVfs fsync count (" + std::to_string(vfs.totals().fsyncs) +
            ") equals the io.fsyncs counter (" + std::to_string(counted) +
            ")");
  std::filesystem::remove_all(dir);
}

void traced_driver_matches_run_optimizer() {
  // cheby/a100: a cell on which no zoo optimizer livelocks.
  space::SearchSpace space(stencil::make_stencil("cheby"));
  gpusim::Simulator sim(gpusim::arch_by_name("a100"));
  ThreadPool pool(kPoolWorkers);
  tuner::StopCriteria stop;
  stop.max_virtual_seconds = 60.0;
  for (const std::string& name : zoo_optimizers()) {
    search::OptimizerOptions options;
    options.seed = 7;
    std::string digests[2];
    search::DriveResult drives[2];
    for (int traced = 0; traced < 2; ++traced) {
      auto optimizer = search::optimizer_registry().make(name, options);
      tuner::Evaluator evaluator(sim, space, {}, 7, &pool);
      if (traced != 0) {
        StepTimes times;
        drives[1] = run_optimizer_traced(*optimizer, evaluator, stop, times);
      } else {
        drives[0] = search::run_optimizer(*optimizer, evaluator, stop);
      }
      digests[traced] = digest(evaluator);
    }
    check(digests[0] == digests[1] && drives[0].steps == drives[1].steps &&
              drives[0].proposals == drives[1].proposals &&
              drives[0].exhausted == drives[1].exhausted,
          "traced driver == run_optimizer for " + name + " on cheby/a100 (" +
              digests[0] + ")");
  }
}

}  // namespace

int run_selftest(const Options& options) {
  if (options.state_dir.empty()) {
    throw UsageError("selftest needs --state-dir");
  }
  timing_vfs_forwards_every_op();
  timing_vfs_fsyncs_match_counter(options.state_dir + "/selftest-io");
  traced_driver_matches_run_optimizer();
  return failures;
}

}  // namespace perfbench
