#pragma once
// io::Vfs decorator that forwards every operation to an inner Vfs and
// counts and times the durability-relevant ones. serve-hot's traced run
// hands it to the daemon as ServeOptions::vfs, so manifests, journals,
// snapshots, results and the warm store all pass through it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/vfs.hpp"

namespace perfbench {

class TimingVfs final : public cstuner::io::Vfs {
 public:
  explicit TimingVfs(cstuner::io::Vfs& inner) : inner_(inner) {}

  struct Totals {
    std::uint64_t ops = 0;     ///< every forwarded call
    std::uint64_t fsyncs = 0;  ///< fsync + fsync_dir (what io.fsyncs counts)
    std::uint64_t bytes_written = 0;
    double fsync_s = 0.0;  ///< inside fsync and fsync_dir
    double write_s = 0.0;  ///< inside write
  };

  Totals totals() const {
    Totals t;
    t.ops = ops_.load();
    t.fsyncs = fsyncs_.load();
    t.bytes_written = bytes_.load();
    t.fsync_s = static_cast<double>(fsync_ns_.load()) * 1e-9;
    t.write_s = static_cast<double>(write_ns_.load()) * 1e-9;
    return t;
  }

  std::string read_file(const std::string& path) override {
    ++ops_;
    return inner_.read_file(path);
  }
  bool exists(const std::string& path) override {
    ++ops_;
    return inner_.exists(path);
  }
  void mkdirs(const std::string& path) override {
    ++ops_;
    inner_.mkdirs(path);
  }
  std::vector<std::string> list_dir(const std::string& path) override {
    ++ops_;
    return inner_.list_dir(path);
  }
  void rename(const std::string& from, const std::string& to) override {
    ++ops_;
    inner_.rename(from, to);
  }
  void unlink(const std::string& path) override {
    ++ops_;
    inner_.unlink(path);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    ++ops_;
    inner_.truncate(path, size);
  }
  void fsync_dir(const std::string& path) override {
    ++ops_;
    const auto t0 = Clock::now();
    inner_.fsync_dir(path);
    fsync_ns_ += elapsed_ns(t0);
    ++fsyncs_;
  }
  void copy_file(const std::string& from, const std::string& to) override {
    ++ops_;
    inner_.copy_file(from, to);
  }
  Handle open(const std::string& path, OpenMode mode) override {
    ++ops_;
    return inner_.open(path, mode);
  }
  std::size_t write(Handle handle, const char* data,
                    std::size_t size) override {
    ++ops_;
    const auto t0 = Clock::now();
    const std::size_t n = inner_.write(handle, data, size);
    write_ns_ += elapsed_ns(t0);
    bytes_ += n;
    return n;
  }
  void fsync(Handle handle) override {
    ++ops_;
    const auto t0 = Clock::now();
    inner_.fsync(handle);
    fsync_ns_ += elapsed_ns(t0);
    ++fsyncs_;
  }
  void close(Handle handle) override {
    ++ops_;
    inner_.close(handle);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static std::int64_t elapsed_ns(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  }

  cstuner::io::Vfs& inner_;
  // Sessions write concurrently from their dispatch threads.
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::int64_t> fsync_ns_{0};
  std::atomic<std::int64_t> write_ns_{0};
};

}  // namespace perfbench
