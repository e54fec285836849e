#include "epoch/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace cpr {
namespace {

TEST(EpochTest, AcquireRefreshRelease) {
  EpochFramework epoch;
  EXPECT_EQ(epoch.ProtectedThreadCount(), 0u);
  const int32_t slot = epoch.AcquireSlot();
  ASSERT_GE(slot, 0);
  EXPECT_EQ(epoch.ProtectedThreadCount(), 1u);
  const uint64_t e = epoch.RefreshSlot(slot);
  EXPECT_EQ(e, epoch.current_epoch());
  epoch.ReleaseSlot(slot);
  EXPECT_EQ(epoch.ProtectedThreadCount(), 0u);
}

TEST(EpochTest, FullTableRefusesASlot) {
  EpochFramework epoch(2);
  const int32_t a = epoch.AcquireSlot();
  const int32_t b = epoch.AcquireSlot();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(epoch.AcquireSlot(), -1);
  epoch.ReleaseSlot(a);
  EXPECT_EQ(epoch.AcquireSlot(), a);
  epoch.ReleaseSlot(a);
  epoch.ReleaseSlot(b);
}

TEST(EpochTest, InvariantSafeBelowLocalBelowCurrent) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  for (int i = 0; i < 100; ++i) {
    epoch.BumpEpoch();
    const uint64_t local = epoch.RefreshSlot(slot);
    EXPECT_LT(epoch.safe_epoch(), local);
    EXPECT_LE(local, epoch.current_epoch());
  }
  epoch.ReleaseSlot(slot);
}

TEST(EpochTest, BumpIncrementsCurrent) {
  EpochFramework epoch;
  const uint64_t before = epoch.current_epoch();
  EXPECT_EQ(epoch.BumpEpoch(), before + 1);
  EXPECT_EQ(epoch.current_epoch(), before + 1);
}

TEST(EpochTest, ActionRunsImmediatelyWithNoThreads) {
  EpochFramework epoch;
  bool ran = false;
  epoch.BumpEpoch([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(epoch.PendingActionCount(), 0u);
}

TEST(EpochTest, ActionWaitsForProtectedSlot) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  std::atomic<bool> ran{false};
  epoch.BumpEpoch([&] { ran = true; });
  // The slot has not refreshed past the bump: the action must not run.
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(epoch.PendingActionCount(), 1u);
  epoch.RefreshSlot(slot);  // now it becomes safe and drains
  EXPECT_TRUE(ran.load());
  epoch.ReleaseSlot(slot);
}

// A slot that read the epoch before looking at its state publishes that
// value: a bump landing in between stays unacknowledged until the slot's
// next refresh, because the slot never saw what the bump announced.
TEST(EpochTest, RefreshSlotPublishesTheObservedEpoch) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  ASSERT_GE(slot, 0);
  const uint64_t observed = epoch.current_epoch();
  std::atomic<bool> ran{false};
  epoch.BumpEpoch([&] { ran = true; });
  EXPECT_EQ(epoch.RefreshSlot(slot, observed), observed);
  EXPECT_FALSE(ran.load());
  epoch.RefreshSlot(slot);
  EXPECT_TRUE(ran.load());
  epoch.ReleaseSlot(slot);
}

TEST(EpochTest, ActionRunsExactlyOnce) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  std::atomic<int> runs{0};
  epoch.BumpEpoch([&] { runs.fetch_add(1); });
  epoch.RefreshSlot(slot);
  epoch.RefreshSlot(slot);
  epoch.RefreshSlot(slot);
  EXPECT_EQ(runs.load(), 1);
  epoch.ReleaseSlot(slot);
}

TEST(EpochTest, ChainedActionsFireInOrder) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  std::vector<int> order;
  epoch.BumpEpoch([&] {
    order.push_back(1);
    epoch.BumpEpoch([&] { order.push_back(2); });
  });
  epoch.RefreshSlot(slot);  // fires action 1, which bumps again
  epoch.RefreshSlot(slot);  // fires action 2
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  epoch.ReleaseSlot(slot);
}

TEST(EpochTest, ReleaseUnblocksPendingAction) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  std::atomic<bool> ran{false};
  epoch.BumpEpoch([&] { ran = true; });
  EXPECT_FALSE(ran.load());
  epoch.ReleaseSlot(slot);  // the last straggler leaving makes it safe
  EXPECT_TRUE(ran.load());
}

TEST(EpochTest, TwoThreadsBothGateTheAction) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  std::atomic<bool> worker_ready{false};
  std::atomic<bool> worker_go{false};
  std::atomic<bool> ran{false};
  std::thread worker([&] {
    const int32_t own = epoch.AcquireSlot();
    worker_ready = true;
    while (!worker_go.load()) std::this_thread::yield();
    epoch.RefreshSlot(own);
    epoch.ReleaseSlot(own);
  });
  while (!worker_ready.load()) std::this_thread::yield();

  epoch.BumpEpoch([&] { ran = true; });
  for (int i = 0; i < 10; ++i) {
    epoch.RefreshSlot(slot);  // we refresh, but the worker has not
    EXPECT_FALSE(ran.load());
  }
  worker_go = true;
  worker.join();
  epoch.RefreshSlot(slot);
  EXPECT_TRUE(ran.load());
  epoch.ReleaseSlot(slot);
}

TEST(EpochTest, WaitUntilSafeFromUnprotectedThread) {
  EpochFramework epoch;
  const uint64_t target = epoch.BumpEpoch();
  epoch.WaitUntilSafe(target - 1);
  EXPECT_GE(epoch.safe_epoch(), target - 1);
}

// Property: memory "reclaimed" at a safe epoch is never observed in use by
// a protected reader. Readers pin a value while protected; a writer retires
// values and reclaims them only once safe.
TEST(EpochTest, ProtectedReadersNeverSeeReclaimedValues) {
  EpochFramework epoch(64);
  std::atomic<int*> current{new int(0)};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      const int32_t slot = epoch.AcquireSlot();
      while (!stop.load(std::memory_order_relaxed)) {
        int* p = current.load(std::memory_order_acquire);
        // The value behind p must still be alive: it is only deleted once
        // this thread refreshes past its retirement epoch.
        EXPECT_GE(*p, 0);
        reads.fetch_add(1, std::memory_order_relaxed);
        epoch.RefreshSlot(slot);
      }
      epoch.ReleaseSlot(slot);
    });
  }

  for (int i = 1; i <= 200; ++i) {
    int* fresh = new int(i);
    int* old = current.exchange(fresh, std::memory_order_acq_rel);
    // Poison-and-free only when no protected thread can still hold `old`.
    epoch.BumpEpoch([old] {
      *old = -1;
      delete old;
    });
    if (i % 20 == 0) std::this_thread::yield();
  }
  // Let the readers observe the final value a few times before stopping
  // (on a single-core box they may not have been scheduled yet).
  const uint64_t target = reads.load() + 10;
  while (reads.load() < target) std::this_thread::yield();
  stop = true;
  for (auto& t : readers) t.join();
  epoch.TickUnprotected();
  EXPECT_GT(reads.load(), 0u);
  delete current.load();
}

TEST(EpochTest, ManyConcurrentBumpsAllActionsRun) {
  EpochFramework epoch(64);
  std::atomic<int> runs{0};
  std::atomic<bool> stop{false};
  std::thread refresher([&] {
    const int32_t slot = epoch.AcquireSlot();
    while (!stop.load()) epoch.RefreshSlot(slot);
    epoch.ReleaseSlot(slot);
  });
  std::vector<std::thread> bumpers;
  constexpr int kPerThread = 200;
  for (int t = 0; t < 4; ++t) {
    bumpers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        epoch.BumpEpoch([&] { runs.fetch_add(1); });
      }
    });
  }
  for (auto& t : bumpers) t.join();
  while (epoch.PendingActionCount() > 0) epoch.TickUnprotected();
  stop = true;
  refresher.join();
  EXPECT_EQ(runs.load(), 4 * kPerThread);
}

}  // namespace
}  // namespace cpr
