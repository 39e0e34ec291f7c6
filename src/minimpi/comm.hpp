#pragma once
// minimpi: an in-process message-passing substrate.
//
// The paper runs the island genetic algorithm's sub-populations as MPI
// processes with ring migration (Fig. 6).  This module reproduces the MPI
// surface the GA needs — ranks, tagged point-to-point messages and an
// agreed live-membership barrier — with ranks mapped to threads so the
// whole framework stays a single dependency-free process.  The API is shaped
// so a real MPI backend could replace it without touching the GA.
//
// Failures are recoverable (docs/fault-tolerance.md, "Distributed
// failures"): a rank body that throws RankKilled is marked dead and its
// survivors run on. Communication with a dead peer yields a typed
// CommStatus::kPeerDead outcome instead of an exception, and survivors agree
// on who is alive through epoch-stamped MembershipViews. Any other exception
// still aborts the run: Context::run rethrows it once every rank has exited.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace cstuner::minimpi {

/// A single message in flight: raw bytes plus envelope.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Outcome of a recoverable communication attempt.
enum class CommStatus : std::uint8_t {
  kOk = 0,
  kPeerDead,  ///< the peer's body exited; the operation can never complete
};

/// Result of a recoverable receive: `message` is meaningful only for kOk.
struct RecvOutcome {
  CommStatus status = CommStatus::kPeerDead;
  Message message;

  bool ok() const { return status == CommStatus::kOk; }
};

/// An agreed snapshot of which ranks are alive, produced by
/// Comm::sync_membership(). Every rank completing the same sync round
/// receives an identical copy (same epoch, same live set), so survivors can
/// make matching topology decisions without further communication.
struct MembershipView {
  /// Number of deaths observed when the view was published; strictly
  /// increases whenever membership shrinks, identical across one round.
  std::uint64_t epoch = 0;
  /// Live ranks, sorted ascending. Never empty for a view returned to a
  /// live rank (the caller itself is in it).
  std::vector<int> live;

  bool contains(int rank) const;
  /// Ring neighbours over the live set (wrap-around). `rank` must be live
  /// and the view must contain at least two ranks.
  int left_neighbor_of(int rank) const;
  int right_neighbor_of(int rank) const;
};

/// Thrown by a rank body to simulate that rank crashing. The context
/// records the death and absorbs the exception — survivors keep running.
class RankKilled : public Error {
 public:
  using Error::Error;
};

class Context;

/// Per-rank communicator handle. Valid only inside Context::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Tagged send of raw bytes to `dest` (never blocks: mailboxes are
  /// unbounded). A dead `dest` yields kPeerDead and drops the payload.
  CommStatus try_send(int dest, int tag, std::vector<std::uint8_t> payload);

  /// Blocking receive of the next message from `source` with `tag`.
  /// Messages `source` sent before dying are still delivered; once they are
  /// drained, a dead `source` yields kPeerDead instead of blocking forever.
  /// A receiver already blocked when the peer dies wakes promptly.
  RecvOutcome try_recv(int source, int tag);

  /// Generation-stamped barrier over the live membership set: returns once
  /// every currently-live rank has entered the same sync round, and hands
  /// every participant an identical MembershipView. A rank dying while
  /// others wait is dropped from the round's requirement, so survivors are
  /// never stuck. Never throws on peer death.
  MembershipView sync_membership();

  /// Typed convenience wrappers for trivially copyable element types.
  template <typename T>
  CommStatus try_send_values(int dest, int tag, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    return try_send(dest, tag, pack_values(values));
  }

  /// Recoverable typed receive: nullopt means the peer died.
  template <typename T>
  std::optional<std::vector<T>> try_recv_values(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    RecvOutcome out = try_recv(source, tag);
    if (!out.ok()) return std::nullopt;
    return unpack_values<T>(out.message);
  }

 private:
  friend class Context;
  Comm(Context* ctx, int rank, int size)
      : ctx_(ctx), rank_(rank), size_(size) {}

  template <typename T>
  static std::vector<std::uint8_t> pack_values(const std::vector<T>& values) {
    std::vector<std::uint8_t> bytes(values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(bytes.data(), values.data(), bytes.size());
    }
    return bytes;
  }

  template <typename T>
  static std::vector<T> unpack_values(const Message& m) {
    CSTUNER_CHECK(m.payload.size() % sizeof(T) == 0);
    std::vector<T> values(m.payload.size() / sizeof(T));
    if (!values.empty()) {
      std::memcpy(values.data(), m.payload.data(), m.payload.size());
    }
    return values;
  }

  Context* ctx_;
  int rank_;
  int size_;
};

/// Owns the mailboxes and the rank threads.
class Context {
 public:
  /// Run `body` on `nranks` ranks (threads); joins all before returning.
  /// A rank exiting via RankKilled is marked dead and absorbed; survivors
  /// run to completion. Any other exception also marks its rank dead (so
  /// peers blocked on it wake), and the first one is rethrown after the
  /// join.
  static void run(int nranks, const std::function<void(Comm&)>& body);

 private:
  friend class Comm;

  explicit Context(int nranks);

  void post(int dest, Message message);
  /// Fills `out` on kOk; blocks until a message arrives or the source dies.
  CommStatus try_take(int dest, int source, int tag, Message& out);
  /// Live-set barrier round for `rank`; returns the agreed view.
  MembershipView membership_sync(int rank);
  /// Declares a rank dead (its body threw) and wakes every blocked peer so
  /// receives and membership syncs involving it resolve promptly instead of
  /// hanging.
  void mark_dead(int rank);
  bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// With sync_mutex_ held: if every live rank has arrived, publish the
  /// view, reset arrivals and advance the round. Returns true on completion.
  bool sync_try_complete_locked();

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::atomic<bool>> dead_;
  std::atomic<int> dead_count_{0};

  // Membership-sync state: a generation-stamped barrier over the live set.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  std::vector<char> sync_arrived_;  // per-rank arrival flag, current round
  std::uint64_t sync_generation_ = 0;
  MembershipView sync_view_;  // view published by the last completed round
};

}  // namespace cstuner::minimpi
