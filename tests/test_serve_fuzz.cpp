// Deterministic protocol fuzzer for the serve daemon (docs/durability.md):
// ten thousand seeded mutated frames — truncations, splices, byte flips,
// binary garbage, oversized lines, JSON bombs, mid-frame disconnects —
// thrown at a live in-process Server. The daemon must never crash, never
// leak a session, answer the hostile-limit cases with typed rejections, and
// still serve a well-formed submit/result round trip after the storm.
//
// Every mutation derives from a fixed Rng seed, so a failure replays
// exactly. The corpus deliberately contains no valid stencil and no
// "shutdown"/"stream" ops, so the storm cannot stop the server out from
// under the test; a mutated frame may still parse as a valid request
// (tight RequestLimits keep any such session cheap) and the storm test
// accounts for every accepted id afterwards.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace cstuner::serve {
namespace {

namespace fs = std::filesystem;

constexpr int kFrames = 10'000;
constexpr std::uint64_t kSeed = 20260808;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstuner_fuzz_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Well-formed protocol lines the mutator starts from. None commit work:
/// the submit uses an unknown stencil (typed bad_request, no session).
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      R"({"op":"submit","kind":"tune","stencil":"nosuch","budget_s":1})",
      R"({"op":"submit","kind":"analyze","stencil":"nosuch","samples":4})",
      R"({"op":"status","id":1})",
      R"({"op":"result","id":999,"timeout_s":0})",
      R"({"op":"cancel","id":7})",
      R"({"op":"stats"})",
      R"({"op":"frobnicate"})",
      R"({"not_op":true,"id":[1,2,3]})",
      R"([1,2,3])",
      R"("just a string")",
  };
  return kCorpus;
}

std::string mutate(Rng& rng, std::string frame) {
  const std::uint64_t kind = rng.bounded(6);
  switch (kind) {
    case 0: {  // truncate
      if (!frame.empty()) frame.resize(rng.bounded(frame.size()));
      return frame;
    }
    case 1: {  // flip 1-4 bytes
      const std::uint64_t flips = 1 + rng.bounded(4);
      for (std::uint64_t i = 0; i < flips && !frame.empty(); ++i) {
        frame[rng.bounded(frame.size())] =
            static_cast<char>(rng.bounded(256));
      }
      return frame;
    }
    case 2: {  // splice with another corpus frame
      const std::string& other = corpus()[rng.bounded(corpus().size())];
      return frame.substr(0, rng.bounded(frame.size() + 1)) +
             other.substr(rng.bounded(other.size()));
    }
    case 3: {  // insert binary garbage
      std::string garbage;
      const std::uint64_t n = 1 + rng.bounded(32);
      for (std::uint64_t i = 0; i < n; ++i) {
        garbage.push_back(static_cast<char>(rng.bounded(256)));
      }
      frame.insert(rng.bounded(frame.size() + 1), garbage);
      return frame;
    }
    case 4: {  // nested-array JSON bomb (depth beyond the parse limit)
      const std::uint64_t depth = 24 + rng.bounded(64);
      return std::string(depth, '[') + "1" + std::string(depth, ']');
    }
    default:
      return frame;  // pristine corpus line
  }
}

/// Newlines inside a mutated frame would smuggle extra (possibly
/// well-formed) lines into the stream; keep one frame == one line.
void strip_newlines(std::string& frame) {
  for (char& c : frame) {
    if (c == '\n' || c == '\r') c = ' ';
  }
}

/// Drains whatever responses are ready without blocking the storm.
void drain(LineReader& reader, std::string& line, int timeout_ms = 0) {
  while (reader.read_line(line, timeout_ms) == LineReader::Status::kLine) {
  }
}

class ServeFuzzFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeOptions serve_options;
    serve_options.state_dir = fresh_dir("state");
    serve_options.warm_start = false;
    // Tight request limits: a mutated frame that survives parsing as a
    // valid request (e.g. a flipped "stencil" key falling back to the
    // default stencil) may legitimately be accepted — these bounds keep
    // any such session cheap, and push everything bigger onto the typed
    // bad_request path.
    serve_options.limits.max_budget_s = 2.0;
    serve_options.limits.max_universe = 1000;
    serve_options.limits.max_samples = 64;
    manager_ = std::make_unique<SessionManager>(serve_options);

    ServerOptions server_options;
    server_options.max_line_bytes = 4096;   // cheap to overflow on purpose
    server_options.max_json_depth = 16;
    server_options.partial_line_deadline_s = 1.0;
    server_ = std::make_unique<Server>(*manager_, server_options);
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    thread_.join();
    server_.reset();
    manager_.reset();
  }

  int connect() const {
    return connect_to("127.0.0.1", server_->port(), 2000);
  }

  /// Sends one line and reads the single response the server owes for it.
  std::string request(int fd, const std::string& line) const {
    send_all(fd, line + "\n");
    LineReader reader(fd);
    std::string response;
    EXPECT_EQ(reader.read_line(response, 10'000), LineReader::Status::kLine);
    return response;
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServeFuzzFixture, TenThousandMutatedFramesNeverKillTheDaemon) {
  Rng rng(kSeed);
  constexpr int kConnections = 8;
  struct Conn {
    int fd;
    LineReader reader;
    explicit Conn(int f) : fd(f), reader(f) {}
  };
  std::vector<Conn> conns;
  conns.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) conns.emplace_back(connect());

  std::string line;
  for (int i = 0; i < kFrames; ++i) {
    std::string frame = mutate(rng, corpus()[rng.bounded(corpus().size())]);
    strip_newlines(frame);
    Conn& conn = conns[rng.bounded(conns.size())];
    if (rng.bounded(64) == 0) {
      // Mid-frame disconnect: a fresh connection hangs up with the line
      // unterminated. The serving thread must just reap it.
      const int fd = connect();
      send_all(fd, frame);
      ::close(fd);
      continue;
    }
    send_all(conn.fd, frame + "\n");
    // Opportunistic drain keeps the server's send buffers from filling;
    // correctness of individual responses is asserted elsewhere.
    drain(conn.reader, line);
  }
  // Let in-flight responses land, then drain everything.
  for (Conn& conn : conns) {
    drain(conn.reader, line, 200);
    ::close(conn.fd);
  }

  // A mutated frame that still parses as a valid request may have been
  // accepted (ids are sequential from 1). Cancel them all: once the dust
  // settles every accepted session must be accounted for as resting —
  // zero leaked (stuck queued/running) sessions.
  const ServeStats storm = manager_->stats();
  for (std::uint64_t id = 1; id <= storm.accepted_total; ++id) {
    manager_->cancel(id);
  }
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  ServeStats settled = manager_->stats();
  while ((settled.queued + settled.running) > 0 &&
         std::chrono::steady_clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    settled = manager_->stats();
  }
  EXPECT_EQ(settled.queued, 0u);
  EXPECT_EQ(settled.running, 0u);
  EXPECT_EQ(settled.resting, settled.accepted_total);

  // The daemon still speaks the protocol: a well-formed tune round-trips.
  const int fd = connect();
  const std::string accepted = request(
      fd,
      R"({"op":"submit","kind":"tune","stencil":"j3d7pt","budget_s":1,)"
      R"("universe":400,"seed":11})");
  ASSERT_NE(accepted.find("\"accepted\""), std::string::npos) << accepted;
  const std::uint64_t id = json_parse(accepted).at("id").as_u64();
  const std::string result = request(
      fd, R"({"op":"result","id":)" + std::to_string(id) +
              R"(,"timeout_s":60})");
  EXPECT_NE(result.find("\"result\""), std::string::npos) << result;
  EXPECT_NE(result.find("\"done\""), std::string::npos) << result;
  ::close(fd);

  const ServeStats after = manager_->stats();
  EXPECT_EQ(after.accepted_total, settled.accepted_total + 1);
  EXPECT_EQ(after.resting, after.accepted_total);
  EXPECT_EQ(after.queued + after.running, 0u);
}

TEST_F(ServeFuzzFixture, OversizedLineGetsTypedRejectionAndConnectionLives) {
  const int fd = connect();
  const std::string huge(8192, 'a');  // 2x max_line_bytes
  const std::string rejected = request(fd, huge);
  EXPECT_NE(rejected.find("\"rejected\""), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("\"oversized\""), std::string::npos) << rejected;
  // Same connection keeps working.
  const std::string stats = request(fd, R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"stats\""), std::string::npos) << stats;
  ::close(fd);
}

TEST_F(ServeFuzzFixture, JsonBombGetsTypedRejectionAndConnectionLives) {
  const int fd = connect();
  const std::string bomb = std::string(64, '[') + "1" + std::string(64, ']');
  const std::string rejected = request(fd, bomb);
  EXPECT_NE(rejected.find("\"rejected\""), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("\"oversized\""), std::string::npos) << rejected;
  const std::string stats = request(fd, R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"stats\""), std::string::npos) << stats;
  ::close(fd);
}

TEST_F(ServeFuzzFixture, SlowLorisConnectionIsClosedAtThePartialDeadline) {
  const int fd = connect();
  send_all(fd, R"({"op":"st)");  // half a line, then silence
  // partial_line_deadline_s is 1.0 in this fixture; the server must hang
  // up rather than hold the half line forever.
  LineReader reader(fd);
  std::string line;
  LineReader::Status status = LineReader::Status::kTimeout;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status == LineReader::Status::kTimeout &&
         std::chrono::steady_clock::now() < deadline) {
    status = reader.read_line(line, 250);
  }
  EXPECT_EQ(status, LineReader::Status::kEof);
  ::close(fd);
}

TEST_F(ServeFuzzFixture, HostileRequestParametersAreRejectedTyped) {
  const int fd = connect();
  // A parameter bomb: syntactically fine, semantically unbounded work.
  const std::string response = request(
      fd,
      R"({"op":"submit","kind":"tune","stencil":"j3d7pt",)"
      R"("budget_s":1e18,"universe":400})");
  EXPECT_NE(response.find("\"bad_request\""), std::string::npos) << response;
  EXPECT_EQ(manager_->stats().accepted_total, 0u);
  ::close(fd);
}

TEST_F(ServeFuzzFixture, UnknownMethodIsRejectedNamingTheRoster) {
  const int fd = connect();
  const std::string response = request(
      fd,
      R"({"op":"submit","kind":"tune","stencil":"j3d7pt",)"
      R"("method":"nosuch","budget_s":1,"universe":400})");
  EXPECT_NE(response.find("\"bad_request\""), std::string::npos) << response;
  EXPECT_NE(response.find("nosuch"), std::string::npos) << response;
  for (const char* name : {"csTuner", "opentuner", "garvey", "artemis",
                           "anneal", "de"}) {
    EXPECT_NE(response.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(manager_->stats().accepted_total, 0u);
  ::close(fd);
}

}  // namespace
}  // namespace cstuner::serve
