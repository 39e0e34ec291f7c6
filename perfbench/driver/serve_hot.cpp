// serve-hot: two closed-loop client connections speaking NDJSON (submit,
// then result) to an in-process serve::Server/SessionManager with default
// admission, warm start on, batch checkpoint sync, and a fresh state
// directory. A cycle is every serve method on a small hot set of cells
// that repeat, plus a share of fault-injected requests.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"
#include "timing_vfs.hpp"

namespace perfbench {

using namespace cstuner;

namespace {

constexpr int kSetups = 3;
constexpr double kFaultRate = 0.2;
constexpr std::uint64_t kTuneSeed = 7;
constexpr double kResultTimeoutS = 120.0;

/// The hot set: the four cells whose csTuner sessions are cheapest, so the
/// mix is not dominated by one method.
const std::vector<Cell>& hot_cells() {
  static const std::vector<Cell> cells = {{"hypterm", "v100"},
                                          {"addsgd6", "a100"},
                                          {"addsgd4", "v100"},
                                          {"rhs4center", "a100"}};
  return cells;
}

struct Case {
  std::size_t cell = 0;  ///< index into hot_cells()
  std::string method;
  double fault_rate = 0.0;
  std::string name() const {
    std::string n = method + "/" + hot_cells()[cell].name();
    if (fault_rate > 0.0) n += "/faults";
    return n;
  }
};

/// One cycle is two lanes, one per connection, run side by side. The heavy
/// lane runs two csTuner sessions per hot cell; the light lane runs garvey,
/// opentuner, artemis and a fault-injected opentuner session, one per hot
/// cell. A light session's latency hinges on whether a csTuner session holds
/// the shared pool, so csTuner sessions are the majority of the cycle (its
/// median falls inside them) and never queue behind each other.
struct Cycle {
  std::vector<Case> heavy;
  std::vector<Case> light;
  std::size_t size() const { return heavy.size() + light.size(); }
};

Cycle cycle_cases() {
  Cycle cycle;
  for (std::size_t c = 0; c < hot_cells().size(); ++c) {
    for (int k = 0; k < 2; ++k) cycle.heavy.push_back({c, "csTuner", 0.0});
  }
  cycle.light = {{0, "garvey", 0.0},
                 {1, "opentuner", 0.0},
                 {2, "artemis", 0.0},
                 {3, "opentuner", kFaultRate}};
  return cycle;
}

std::string submit_line(const Case& c) {
  JsonWriter json;
  json.begin_object()
      .field("op", "submit")
      .field("tenant", "perfbench")
      .field("stencil", hot_cells()[c.cell].stencil)
      .field("arch", hot_cells()[c.cell].arch)
      .field("method", c.method)
      .field("seed", kTuneSeed)
      .field("fault_rate", c.fault_rate)
      .end_object();
  return json.str();
}

/// Parses Setting::to_string() output ("TBx=32 ... usePrefetching=off").
std::optional<space::Setting> parse_setting(const std::string& text) {
  space::Setting setting;
  std::set<std::size_t> seen;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string name = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    std::size_t id = space::kParamCount;
    for (std::size_t i = 0; i < space::kParamCount; ++i) {
      if (name == space::param_name(static_cast<space::ParamId>(i))) id = i;
    }
    if (id == space::kParamCount || !seen.insert(id).second) {
      return std::nullopt;
    }
    std::int64_t v = 0;
    if (value == "on") {
      v = space::kOn;
    } else if (value == "off") {
      v = space::kOff;
    } else {
      try {
        v = std::stoll(value);
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    setting.set(static_cast<space::ParamId>(id), v);
  }
  if (seen.size() != space::kParamCount) return std::nullopt;
  return setting;
}

/// One NDJSON connection to the daemon.
class Client {
 public:
  explicit Client(int port)
      : fd_(serve::connect_to("127.0.0.1", port, 5000)), reader_(fd_) {}
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  JsonValue call(const std::string& line) {
    serve::send_all(fd_, line + "\n");
    std::string response;
    const auto t0 = Clock::now();
    for (;;) {
      switch (reader_.read_line(response, 1000)) {
        case serve::LineReader::Status::kLine:
          return json_parse(response);
        case serve::LineReader::Status::kEof:
          throw Error("daemon closed the connection");
        case serve::LineReader::Status::kOversized:
          throw Error("oversized response");
        case serve::LineReader::Status::kTimeout:
          if (seconds_since(t0) > kResultTimeoutS + 10.0) {
            throw Error("no response from the daemon");
          }
          break;
      }
    }
  }

 private:
  int fd_;
  serve::LineReader reader_;
};

/// An in-process daemon on a fresh state directory, with its two client
/// connections.
class Daemon {
 public:
  Daemon(const std::string& state_dir, io::Vfs* vfs) {
    std::filesystem::remove_all(state_dir);
    serve::ServeOptions options;
    options.state_dir = state_dir;
    options.vfs = vfs;
    manager_ = std::make_unique<serve::SessionManager>(options);
    server_ = std::make_unique<serve::Server>(*manager_);
    thread_ = std::thread([this] { server_->run(); });
    try {
      for (auto& client : clients_) {
        client = std::make_unique<Client>(server_->port());
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Client& client(std::size_t i) { return *clients_[i]; }

 private:
  /// Hangs up both connections, then stops and joins the server (which
  /// drains the manager).
  void stop() {
    for (auto& client : clients_) client.reset();
    server_->stop();
    thread_.join();
  }

  std::unique_ptr<serve::SessionManager> manager_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::unique_ptr<Client> clients_[2];
};

struct Record {
  Case c;
  Request request;
  double submit_s = 0.0;
  double session_s = 0.0;
  bool rejected = false;
};

Record serve_request(Client& client, const Case& c,
                     const std::vector<std::unique_ptr<space::SearchSpace>>&
                         spaces) {
  Record rec;
  rec.c = c;
  Request& r = rec.request;
  r.cell = c.name();
  r.best_ms = std::numeric_limits<double>::infinity();
  const auto t0 = Clock::now();
  try {
    const JsonValue ack = client.call(submit_line(c));
    rec.submit_s = seconds_since(t0);
    if (ack.at("type").as_string() != "accepted") {
      rec.rejected = true;
      r.error = "rejected: " + ack.at("type").as_string();
      if (const JsonValue* reason = ack.find("reason")) {
        r.error += " " + reason->as_string();
      }
    } else {
      JsonWriter ask;
      ask.begin_object()
          .field("op", "result")
          .field("id", ack.at("id").as_u64())
          .field("timeout_s", kResultTimeoutS)
          .end_object();
      const auto t1 = Clock::now();
      const JsonValue done = client.call(ask.str());
      rec.session_s = seconds_since(t1);
      if (done.at("type").as_string() != "result") {
        r.error = "no result: " + done.at("type").as_string();
      } else {
        const serve::SessionResult res = serve::SessionResult::from_json(done);
        r.best_ms = res.best_time_ms();
        const auto setting = parse_setting(res.best_setting);
        if (res.state != serve::SessionState::kDone) {
          r.error = std::string("session ended ") +
                    serve::session_state_name(res.state) + ": " + res.error;
        } else if (!(std::isfinite(r.best_ms) && r.best_ms > 0.0)) {
          r.error = "non-finite best time";
        } else if (!setting.has_value() ||
                   !spaces[c.cell]->checker().is_valid(*setting)) {
          r.error = "best setting rejected by the ConstraintChecker: " +
                    res.best_setting;
        } else {
          r.ok = true;
        }
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = seconds_since(t0);
  return rec;
}

/// Runs whole cycles until `seconds` have passed at a cycle boundary, or
/// exactly `cycles` cycles when that is nonzero. Each cycle runs the heavy
/// lane on connection 0 and the light lane on connection 1, each in a fresh
/// seeded order, and ends when both lanes have. Records come back in cycle
/// order, heavy lane first.
std::vector<Record> timed_phase(Daemon& daemon, const Cycle& cycle,
                                std::uint64_t seed,
                                const std::vector<std::unique_ptr<
                                    space::SearchSpace>>& spaces,
                                double seconds, std::size_t cycles,
                                double& wall_s) {
  const auto run_lane = [&](std::size_t conn, const std::vector<Case>& lane,
                            std::size_t stream, std::vector<Record>& out) {
    for (std::size_t i : cycle_order(lane.size(), seed, stream)) {
      out.push_back(serve_request(daemon.client(conn), lane[i], spaces));
    }
  };
  std::vector<Record> all;
  const auto start = Clock::now();
  for (std::size_t c = 0; cycles > 0 ? c < cycles
                                     : c == 0 || seconds_since(start) < seconds;
       ++c) {
    std::vector<Record> heavy;
    std::vector<Record> light;
    std::thread other(run_lane, 1, std::cref(cycle.light), 2 * c + 1,
                      std::ref(light));
    run_lane(0, cycle.heavy, 2 * c, heavy);
    other.join();
    for (Record& rec : heavy) all.push_back(std::move(rec));
    for (Record& rec : light) all.push_back(std::move(rec));
  }
  wall_s = seconds_since(start);
  return all;
}

}  // namespace

RunReport run_serve(const Options& options) {
  if (options.state_dir.empty()) throw UsageError("serve needs --state-dir");
  RunReport report;
  std::vector<std::unique_ptr<space::SearchSpace>> spaces;
  for (const Cell& cell : hot_cells()) {
    spaces.push_back(std::make_unique<space::SearchSpace>(
        stencil::make_stencil(cell.stencil)));
  }
  const Cycle cycle = cycle_cases();
  const Case warm_up{0, "csTuner", 0.0};

  // Set-up: fresh state dir, SessionManager (with its recovery scan),
  // Server listening, two connections, one untimed warm-up request.
  // Repeated; the last daemon serves the timed phase.
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < (options.trace ? 1 : kSetups); ++k) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(
        options.state_dir + "/setup" + std::to_string(k), nullptr);
    const Record warm = serve_request(daemon->client(0), warm_up, spaces);
    report.setup_s.push_back(seconds_since(t0));
    if (!warm.request.ok) {
      report.errors.push_back("warm-up failed: " + warm.request.error);
    }
  }

  // A traced run splits its time between the untraced and traced phases.
  std::vector<Record> records = timed_phase(
      *daemon, cycle, options.seed, spaces,
      options.trace ? options.seconds / 2 : options.seconds, 0,
      report.timed_wall_s);
  daemon.reset();

  if (options.trace) {
    // Traced phase: a second daemon whose state goes through TimingVfs,
    // running exactly as many cycles as the untraced phase did.
    const std::size_t cycles = records.size() / cycle.size();
    TimingVfs vfs(io::Vfs::real());
    daemon = std::make_unique<Daemon>(options.state_dir + "/traced", &vfs);
    const Record warm = serve_request(daemon->client(0), warm_up, spaces);
    if (!warm.request.ok) {
      report.errors.push_back("warm-up failed: " + warm.request.error);
    }
    const TimingVfs::Totals io0 = vfs.totals();
    obs::Counter& fsyncs = obs::metrics().counter("io.fsyncs");
    const std::uint64_t fsyncs0 = fsyncs.value();
    double traced_wall_s = 0.0;
    std::vector<Record> traced =
        timed_phase(*daemon, cycle, options.seed, spaces, 0.0, cycles,
                    traced_wall_s);
    const TimingVfs::Totals io1 = vfs.totals();
    const std::uint64_t counted = fsyncs.value() - fsyncs0;
    daemon.reset();
    if (io1.fsyncs - io0.fsyncs != counted) {
      report.errors.push_back("TimingVfs fsyncs " +
                              std::to_string(io1.fsyncs - io0.fsyncs) +
                              " != io.fsyncs counter " +
                              std::to_string(counted));
    }

    double submit_s = 0.0;
    double session_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t sessions = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cs_sessions = 0;
    std::uint64_t cs_repeats = 0;
    std::set<std::size_t> cs_seen;
    for (const Record& rec : traced) {
      submit_s += rec.submit_s;
      session_s += rec.session_s;
      wall_s += rec.request.wall_s;
      rejected += rec.rejected ? 1 : 0;
      sessions += rec.rejected ? 0 : 1;
      if (rec.c.method == "csTuner") {
        ++cs_sessions;
        cs_repeats += cs_seen.insert(rec.c.cell).second ? 0 : 1;
      }
      if (!rec.request.ok) {
        report.errors.push_back("traced " + rec.request.cell + ": " +
                                rec.request.error);
      }
    }
    const auto n = static_cast<std::uint64_t>(traced.size());
    const double dn = static_cast<double>(n);
    const double ds = static_cast<double>(std::max<std::uint64_t>(sessions, 1));
    report.layers = {
        {"serve.submit_s", submit_s / dn, "s", n},
        {"serve.session_s", session_s / dn, "s", sessions},
        {"io.fsyncs_per_session",
         static_cast<double>(io1.fsyncs - io0.fsyncs) / ds, "count", sessions},
        {"io.bytes_written_per_session",
         static_cast<double>(io1.bytes_written - io0.bytes_written) / ds,
         "bytes", sessions},
        {"io.fsync_s", (io1.fsync_s - io0.fsync_s) / ds, "s", sessions},
        {"io.write_s", (io1.write_s - io0.write_s) / ds, "s", sessions},
        {"serve.rejected_frac", static_cast<double>(rejected) / dn, "frac", n},
        {"serve.repeat_cell_frac",
         cs_sessions > 0 ? static_cast<double>(cs_repeats) /
                               static_cast<double>(cs_sessions)
                         : 0.0,
         "frac", cs_sessions},
        {"unattributed_frac", 1.0 - (submit_s + session_s) / wall_s, "frac",
         n},
        {"tracing_overhead_frac", traced_wall_s / report.timed_wall_s - 1.0,
         "frac", n},
    };
  }
  for (Record& rec : records) report.requests.push_back(std::move(rec.request));
  std::filesystem::remove_all(options.state_dir);
  return report;
}

}  // namespace perfbench
