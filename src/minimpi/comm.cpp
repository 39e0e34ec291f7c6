#include "minimpi/comm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/obs.hpp"

namespace cstuner::minimpi {

bool MembershipView::contains(int rank) const {
  return std::binary_search(live.begin(), live.end(), rank);
}

namespace {

std::size_t live_index_of(const std::vector<int>& live, int rank) {
  const auto it = std::lower_bound(live.begin(), live.end(), rank);
  CSTUNER_CHECK_MSG(it != live.end() && *it == rank,
                    "rank is not in the live membership set");
  return static_cast<std::size_t>(it - live.begin());
}

}  // namespace

int MembershipView::left_neighbor_of(int rank) const {
  CSTUNER_CHECK(live.size() >= 2);
  const std::size_t i = live_index_of(live, rank);
  return live[(i + live.size() - 1) % live.size()];
}

int MembershipView::right_neighbor_of(int rank) const {
  CSTUNER_CHECK(live.size() >= 2);
  const std::size_t i = live_index_of(live, rank);
  return live[(i + 1) % live.size()];
}

CommStatus Comm::try_send(int dest, int tag,
                          std::vector<std::uint8_t> payload) {
  CSTUNER_CHECK(dest >= 0 && dest < size_);
  if (ctx_->is_dead(dest)) {
    CSTUNER_OBS_COUNT("minimpi.peer_dead", 1);
    return CommStatus::kPeerDead;
  }
  CSTUNER_OBS_COUNT("minimpi.sends", 1);
  CSTUNER_OBS_COUNT("minimpi.bytes_sent", payload.size());
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  ctx_->post(dest, std::move(m));
  return CommStatus::kOk;
}

RecvOutcome Comm::try_recv(int source, int tag) {
  CSTUNER_CHECK(source >= 0 && source < size_);
  // The span shows how long this rank sat blocked on its peer — the
  // island-imbalance signal in a trace.
  CSTUNER_TRACE_SPAN("comm", "minimpi.recv_wait");
  CSTUNER_OBS_COUNT("minimpi.recvs", 1);
  RecvOutcome out;
  out.status = ctx_->try_take(rank_, source, tag, out.message);
  if (out.status == CommStatus::kPeerDead) {
    CSTUNER_OBS_COUNT("minimpi.peer_dead", 1);
  }
  return out;
}

MembershipView Comm::sync_membership() {
  CSTUNER_TRACE_SPAN("comm", "minimpi.sync_membership");
  CSTUNER_OBS_COUNT("minimpi.membership_syncs", 1);
  return ctx_->membership_sync(rank_);
}

Context::Context(int nranks)
    : nranks_(nranks),
      dead_(static_cast<std::size_t>(nranks)),
      sync_arrived_(static_cast<std::size_t>(nranks), 0) {
  CSTUNER_CHECK(nranks >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void Context::mark_dead(int rank) {
  dead_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
  dead_count_.fetch_add(1, std::memory_order_acq_rel);
  // Lock-then-notify so a peer that checked the flag just before it was set
  // cannot go to sleep and miss the wakeup.
  for (auto& box : mailboxes_) {
    { std::lock_guard<std::mutex> lock(box->mutex); }
    box->cv.notify_all();
  }
  // A membership-sync round waiting on this rank can now complete without
  // it; drop any stale arrival and re-evaluate the round.
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    sync_arrived_[static_cast<std::size_t>(rank)] = 0;
    (void)sync_try_complete_locked();
  }
  sync_cv_.notify_all();
}

void Context::post(int dest, Message message) {
  auto& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(std::move(message));
  }
  box.cv.notify_all();
}

CommStatus Context::try_take(int dest, int source, int tag, Message& out) {
  auto& box = *mailboxes_[static_cast<std::size_t>(dest)];
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if (it->source == source && it->tag == tag) {
        out = std::move(*it);
        box.messages.erase(it);
        return CommStatus::kOk;
      }
    }
    // Nothing queued from `source`: if it died, nothing ever will be.
    // (Checked after the scan so messages sent before death still arrive.)
    if (is_dead(source)) return CommStatus::kPeerDead;
    box.cv.wait(lock);
  }
}

bool Context::sync_try_complete_locked() {
  int live = 0;
  bool all_arrived = true;
  for (int r = 0; r < nranks_; ++r) {
    if (is_dead(r)) continue;
    ++live;
    if (!sync_arrived_[static_cast<std::size_t>(r)]) all_arrived = false;
  }
  if (live == 0 || !all_arrived) return false;
  MembershipView view;
  view.epoch = static_cast<std::uint64_t>(
      dead_count_.load(std::memory_order_acquire));
  view.live.reserve(static_cast<std::size_t>(live));
  for (int r = 0; r < nranks_; ++r) {
    if (!is_dead(r)) view.live.push_back(r);
  }
  sync_view_ = std::move(view);
  std::fill(sync_arrived_.begin(), sync_arrived_.end(), 0);
  ++sync_generation_;
  return true;
}

MembershipView Context::membership_sync(int rank) {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  CSTUNER_CHECK(!is_dead(rank));
  sync_arrived_[static_cast<std::size_t>(rank)] = 1;
  const std::uint64_t round = sync_generation_;
  if (sync_try_complete_locked()) {
    sync_cv_.notify_all();
    return sync_view_;
  }
  // Wait for this round to complete (by the last live arrival, or by a
  // death that makes the remaining arrivals sufficient). The next round
  // cannot complete before this rank re-enters, so on wakeup sync_view_
  // is exactly this round's published view.
  sync_cv_.wait(lock, [&] { return sync_generation_ != round; });
  return sync_view_;
}

void Context::run(int nranks, const std::function<void(Comm&)>& body) {
  Context ctx(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(&ctx, r, nranks);
      try {
        body(comm);
      } catch (const RankKilled&) {
        // An injected crash: the death is the whole point — record it and
        // let the survivors carry on.
        ctx.mark_dead(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Fail loudly: peers blocked on this rank see kPeerDead, not a hang.
        ctx.mark_dead(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace cstuner::minimpi
