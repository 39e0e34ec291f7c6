#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "minimpi/comm.hpp"

namespace cstuner::minimpi {
namespace {

// Messaging through the recoverable calls, expecting a live peer.
template <typename T>
void send(Comm& comm, int dest, int tag, const std::vector<T>& values) {
  EXPECT_EQ(comm.try_send_values<T>(dest, tag, values), CommStatus::kOk);
}

template <typename T>
std::vector<T> recv(Comm& comm, int source, int tag) {
  auto values = comm.try_recv_values<T>(source, tag);
  EXPECT_TRUE(values.has_value()) << "rank " << source << " died";
  return values.value_or(std::vector<T>{});
}

TEST(MiniMpi, SingleRankRuns) {
  int observed_size = 0;
  Context::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    observed_size = comm.size();
  });
  EXPECT_EQ(observed_size, 1);
}

TEST(MiniMpi, RanksAreDistinct) {
  std::atomic<int> mask{0};
  Context::run(4, [&](Comm& comm) { mask |= (1 << comm.rank()); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(MiniMpi, PointToPointRoundTrip) {
  Context::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send<int>(comm, 1, 7, {1, 2, 3});
      const auto reply = recv<int>(comm, 1, 8);
      EXPECT_EQ(reply, (std::vector<int>{6}));
    } else {
      const auto data = recv<int>(comm, 0, 7);
      const int sum = std::accumulate(data.begin(), data.end(), 0);
      send<int>(comm, 0, 8, {sum});
    }
  });
}

TEST(MiniMpi, TagsAreMatchedIndependently) {
  Context::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send<int>(comm, 1, /*tag=*/1, {10});
      send<int>(comm, 1, /*tag=*/2, {20});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(recv<int>(comm, 0, 2), (std::vector<int>{20}));
      EXPECT_EQ(recv<int>(comm, 0, 1), (std::vector<int>{10}));
    }
  });
}

TEST(MiniMpi, FifoPerSourceAndTag) {
  Context::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) send<int>(comm, 1, 3, {i});
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(recv<int>(comm, 0, 3), (std::vector<int>{i}));
      }
    }
  });
}

TEST(MiniMpi, EmptyPayloadSupported) {
  Context::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.try_send(1, 4, {}), CommStatus::kOk);
    } else {
      const RecvOutcome out = comm.try_recv(0, 4);
      ASSERT_TRUE(out.ok());
      EXPECT_TRUE(out.message.payload.empty());
      EXPECT_EQ(out.message.source, 0);
      EXPECT_EQ(out.message.tag, 4);
    }
  });
}

TEST(MiniMpi, ExceptionInRankPropagates) {
  // Rank 0 blocks on the failing rank; the failure must wake it and then
  // surface from run().
  EXPECT_THROW(Context::run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw UsageError("rank 1 failed");
                              }
                              EXPECT_EQ(comm.try_recv(1, 2).status,
                                        CommStatus::kPeerDead);
                            }),
               UsageError);
}

TEST(MiniMpi, ManyRanksAllToAllStress) {
  const int n = 6;
  Context::run(n, [&](Comm& comm) {
    // Every rank sends a distinct payload to every other rank.
    for (int dest = 0; dest < n; ++dest) {
      if (dest == comm.rank()) continue;
      send<int>(comm, dest, 11, {comm.rank() * 100 + dest});
    }
    for (int src = 0; src < n; ++src) {
      if (src == comm.rank()) continue;
      const auto got = recv<int>(comm, src, 11);
      EXPECT_EQ(got[0], src * 100 + comm.rank());
    }
  });
}

TEST(MiniMpi, InterleavedTagsAcrossGenerations) {
  Context::run(2, [](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      if (comm.rank() == 0) {
        send<int>(comm, 1, round % 3, {round});
      } else {
        EXPECT_EQ(recv<int>(comm, 0, round % 3)[0], round);
      }
    }
  });
}

TEST(MiniMpi, LargePayloadRoundTrip) {
  Context::run(2, [](Comm& comm) {
    std::vector<double> big(100000);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<double>(i) * 0.5;
    }
    if (comm.rank() == 0) {
      send<double>(comm, 1, 21, big);
    } else {
      EXPECT_EQ(recv<double>(comm, 0, 21), big);
    }
  });
}

TEST(MiniMpi, TypedRoundTripPreservesDoubles) {
  Context::run(2, [](Comm& comm) {
    const std::vector<double> payload = {1.5, -2.25, 1e300, 0.0};
    if (comm.rank() == 0) {
      send<double>(comm, 1, 6, payload);
    } else {
      EXPECT_EQ(recv<double>(comm, 0, 6), payload);
    }
  });
}

TEST(MiniMpi, MessagesSentBeforeDeathStillDelivered) {
  // A failed rank's queued messages are drained before try_recv reports
  // the death.
  std::atomic<bool> got_payload{false};
  std::atomic<bool> second_recv_peer_dead{false};
  EXPECT_THROW(Context::run(2,
                            [&](Comm& comm) {
                              if (comm.rank() == 1) {
                                send<int>(comm, 0, 5, {99});
                                throw UsageError("rank 1 dies after send");
                              }
                              got_payload = recv<int>(comm, 1, 5) ==
                                            std::vector<int>{99};
                              second_recv_peer_dead =
                                  comm.try_recv(1, 5).status ==
                                  CommStatus::kPeerDead;
                            }),
               UsageError);
  EXPECT_TRUE(got_payload.load());
  EXPECT_TRUE(second_recv_peer_dead.load());
}

// --- Rank deaths: typed outcomes and membership views.

TEST(MiniMpiRecoverable, TryRecvWakesPromptlyOnPeerDeath) {
  // The receiver releases the peer, then blocks in try_recv on a message
  // that never comes. The peer dies while the receiver is blocked; the
  // death must wake it with kPeerDead instead of leaving it blocked forever
  // (a missed wakeup hangs this test until ctest's timeout).
  std::atomic<bool> woke_with_peer_dead{false};
  std::atomic<long> wait_ms{-1};
  Context::run(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      recv<int>(comm, 0, 1);
      // Give rank 0 time to block before dying.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw RankKilled("rank 1 killed");
    }
    send<int>(comm, 1, 1, {0});  // release the peer to die
    const auto t0 = std::chrono::steady_clock::now();
    const RecvOutcome out = comm.try_recv(1, 3);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    woke_with_peer_dead = (out.status == CommStatus::kPeerDead);
    wait_ms = elapsed.count();
  });
  EXPECT_TRUE(woke_with_peer_dead.load());
  // Generous bound: the death woke the receiver, not some unrelated wakeup
  // long after it.
  EXPECT_LT(wait_ms.load(), 10000);
}

TEST(MiniMpiRecoverable, TrySendToDeadPeerReturnsPeerDead) {
  std::atomic<bool> saw_peer_dead{false};
  Context::run(2, [&](Comm& comm) {
    if (comm.rank() == 1) throw RankKilled("rank 1 killed");
    // Learn of the death via try_recv, then verify try_send agrees.
    EXPECT_EQ(comm.try_recv(1, 3).status, CommStatus::kPeerDead);
    saw_peer_dead =
        comm.try_send_values<int>(1, 4, {42}) == CommStatus::kPeerDead;
  });
  EXPECT_TRUE(saw_peer_dead.load());
}

TEST(MiniMpiRecoverable, TryRecvDrainsQueuedMessagesBeforeReportingDeath) {
  std::atomic<bool> got_payload{false};
  std::atomic<bool> then_peer_dead{false};
  Context::run(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      send<int>(comm, 0, 5, {99});
      throw RankKilled("rank 1 killed after send");
    }
    const auto got = comm.try_recv_values<int>(1, 5);
    got_payload = got.has_value() && *got == std::vector<int>{99};
    then_peer_dead = !comm.try_recv_values<int>(1, 5).has_value();
  });
  EXPECT_TRUE(got_payload.load());
  EXPECT_TRUE(then_peer_dead.load());
}

TEST(MiniMpiRecoverable, RunAbsorbsKilledRanksButPropagatesRealErrors) {
  // RankKilled is absorbed (survivors finish, run returns normally)...
  std::atomic<int> survivors{0};
  Context::run(3, [&](Comm& comm) {
    if (comm.rank() == 1) throw RankKilled("injected");
    survivors.fetch_add(1);
  });
  EXPECT_EQ(survivors.load(), 2);
  // ...while a genuine error still aborts the run.
  EXPECT_THROW(Context::run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw UsageError("real bug");
                              }
                            }),
               UsageError);
}

TEST(MiniMpiRecoverable, SyncMembershipAgreesAcrossSurvivors) {
  // Rank 2 dies before ever syncing; every survivor's first agreed view
  // must be identical: epoch 1, live = {0, 1, 3}.
  std::mutex mu;
  std::vector<MembershipView> views;
  Context::run(4, [&](Comm& comm) {
    if (comm.rank() == 2) throw RankKilled("rank 2 killed");
    const MembershipView view = comm.sync_membership();
    std::lock_guard<std::mutex> lock(mu);
    views.push_back(view);
  });
  ASSERT_EQ(views.size(), 3u);
  for (const MembershipView& v : views) {
    EXPECT_EQ(v.epoch, 1u);
    EXPECT_EQ(v.live, (std::vector<int>{0, 1, 3}));
  }
}

TEST(MiniMpiRecoverable, SyncMembershipIsReusableAndStable) {
  std::atomic<bool> all_stable{true};
  Context::run(3, [&](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      const MembershipView view = comm.sync_membership();
      if (view.epoch != 0 || view.live != std::vector<int>{0, 1, 2}) {
        all_stable = false;
      }
    }
  });
  EXPECT_TRUE(all_stable.load());
}

TEST(MiniMpiRecoverable, MembershipViewRingNeighbors) {
  MembershipView view;
  view.live = {0, 1, 3};
  EXPECT_TRUE(view.contains(3));
  EXPECT_FALSE(view.contains(2));
  // The live ring after rank 2 died: 0 -> 1 -> 3 -> 0.
  EXPECT_EQ(view.right_neighbor_of(0), 1);
  EXPECT_EQ(view.right_neighbor_of(1), 3);
  EXPECT_EQ(view.right_neighbor_of(3), 0);
  EXPECT_EQ(view.left_neighbor_of(0), 3);
  EXPECT_EQ(view.left_neighbor_of(1), 0);
  EXPECT_EQ(view.left_neighbor_of(3), 1);
  EXPECT_THROW(view.left_neighbor_of(2), Error);
}

}  // namespace
}  // namespace cstuner::minimpi
