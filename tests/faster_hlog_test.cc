#include "faster/hybrid_log.h"

#include <gtest/gtest.h>

#include "test_dirs.h"

#include <cstring>
#include <string>

#include "epoch/epoch.h"
#include "faster/record.h"
#include "io/io_pool.h"

namespace cpr::faster {
namespace {

std::string FreshPath() {
  return cpr::testing::FreshTestDir("cpr_hlog") + "/hlog.dat";
}

HybridLog::Config SmallConfig(const std::string& path) {
  HybridLog::Config c;
  c.page_bits = 12;  // 4 KiB pages: rollovers happen fast
  c.memory_pages = 8;
  c.ro_lag_pages = 2;
  c.path = path;
  return c;
}

class HlogTest : public ::testing::Test {
 protected:
  HlogTest()
      : io_(2),
        log_(SmallConfig(FreshPath()), &epoch_, &io_),
        slot_(epoch_.AcquireSlot()) {}
  ~HlogTest() override { epoch_.ReleaseSlot(slot_); }

  // Allocation helper that performs the refresh-and-retry protocol.
  Address Alloc(uint32_t size) {
    Address a;
    while ((a = log_.Allocate(size)) == kInvalidAddress) {
      epoch_.RefreshSlot(slot_);
    }
    return a;
  }

  EpochFramework epoch_;
  IoPool io_;
  HybridLog log_;
  const int32_t slot_;  // this test's (the only) protected participant
};

TEST_F(HlogTest, AddressesStartAtPageOne) {
  EXPECT_EQ(log_.begin_address(), log_.page_size());
  EXPECT_EQ(log_.tail(), log_.begin_address());
  EXPECT_EQ(log_.head(), log_.begin_address());
}

TEST_F(HlogTest, SequentialAllocationAdvancesTail) {
  const Address a = Alloc(64);
  const Address b = Alloc(64);
  EXPECT_EQ(a, log_.begin_address());
  EXPECT_EQ(b, a + 64);
  EXPECT_EQ(log_.tail(), b + 64);
}

TEST_F(HlogTest, AllocationsAreZeroed) {
  const Address a = Alloc(128);
  const char* p = log_.Ptr(a);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(p[i], 0);
}

TEST_F(HlogTest, PageRolloverSkipsToNextPage) {
  const uint64_t page = log_.page_size();
  // Fill most of page 1, then request more than the remainder.
  Alloc(static_cast<uint32_t>(page - 64));
  const Address a = Alloc(128);
  EXPECT_EQ(a, 2 * page) << "allocation must start at the next page";
}

TEST_F(HlogTest, WritesSurviveWithinMemory) {
  const Address a = Alloc(64);
  std::memset(log_.Ptr(a), 0xAB, 64);
  const Address b = Alloc(64);
  std::memset(log_.Ptr(b), 0xCD, 64);
  EXPECT_EQ(static_cast<unsigned char>(*log_.Ptr(a)), 0xABu);
  EXPECT_EQ(static_cast<unsigned char>(*log_.Ptr(b)), 0xCDu);
}

TEST_F(HlogTest, ReadOnlyLagsTailAfterRollovers) {
  const uint64_t page = log_.page_size();
  for (int i = 0; i < 5; ++i) {
    Alloc(static_cast<uint32_t>(page / 2));
  }
  // Tail is in page 3; with a lag of 2 pages read_only should have moved.
  EXPECT_GT(log_.tail(), log_.read_only());
  EXPECT_GE(log_.read_only(), log_.begin_address());
}

TEST_F(HlogTest, SafeReadOnlyFollowsAfterRefresh) {
  log_.ShiftReadOnly(log_.tail());
  // The bump action needs the (only) protected slot to refresh.
  epoch_.RefreshSlot(slot_);
  EXPECT_EQ(log_.safe_read_only(), log_.tail());
}

TEST_F(HlogTest, ShiftReadOnlyTriggersFlush) {
  const Address a = Alloc(256);
  std::memset(log_.Ptr(a), 0x5A, 256);
  const Address target = log_.ShiftReadOnlyToTail();
  epoch_.RefreshSlot(slot_);  // publishes safe_read_only and issues the flush
  io_.Drain();
  EXPECT_GE(log_.flushed_until(), target);
  // Bytes must be on disk.
  std::vector<char> buf(256);
  ASSERT_TRUE(log_.ReadRaw(a, buf.data(), 256).ok());
  for (char c : buf) EXPECT_EQ(static_cast<unsigned char>(c), 0x5Au);
}

TEST_F(HlogTest, EvictionAdvancesHeadWhenMemoryFull) {
  const uint64_t page = log_.page_size();
  // Write identifiable data and allocate far past the 8-page budget.
  for (int i = 0; i < 32; ++i) {
    const Address a = Alloc(static_cast<uint32_t>(page / 2));
    std::memset(log_.Ptr(a), i + 1, page / 2);
  }
  EXPECT_GT(log_.head(), log_.begin_address());
  // Evicted bytes are on disk and intact.
  std::vector<char> buf(page / 2);
  ASSERT_TRUE(log_.ReadRaw(log_.begin_address(), buf.data(), buf.size()).ok());
  for (char c : buf) EXPECT_EQ(c, 1);
  // Memory window invariant: tail - head fits in the frame budget.
  EXPECT_LE(log_.tail() - log_.head(), 8 * page);
}

TEST_F(HlogTest, EvictionFloorBlocksRollover) {
  const uint64_t page = log_.page_size();
  log_.SetEvictionFloor(log_.begin_address());
  // Consume the whole memory budget; the next rollover would need to evict
  // page 1, which the floor forbids: Allocate must return kInvalidAddress.
  bool stalled = false;
  for (int i = 0; i < 16 * 2 + 2; ++i) {
    const Address a = log_.Allocate(static_cast<uint32_t>(page / 2));
    if (a == kInvalidAddress) {
      stalled = true;
      break;
    }
    epoch_.RefreshSlot(slot_);
  }
  EXPECT_TRUE(stalled);
  log_.SetEvictionFloor(kMaxAddress);
  // Now the same allocation eventually succeeds.
  Address a;
  while ((a = log_.Allocate(static_cast<uint32_t>(page / 2))) ==
         kInvalidAddress) {
    epoch_.RefreshSlot(slot_);
  }
  EXPECT_NE(a, kInvalidAddress);
}

TEST_F(HlogTest, ResetForRecoveryRestoresOffsets) {
  const Address a = Alloc(64);
  std::memset(log_.Ptr(a), 0x77, 64);
  const Address end = log_.ShiftReadOnlyToTail();
  epoch_.RefreshSlot(slot_);
  io_.Drain();
  ASSERT_TRUE(log_.ResetForRecovery(end).ok());
  EXPECT_EQ(log_.tail(), end);
  EXPECT_EQ(log_.read_only(), end);
  EXPECT_EQ(log_.flushed_until(), end);
  // The partial page was reloaded into memory: Ptr works for [head, end).
  EXPECT_EQ(static_cast<unsigned char>(*log_.Ptr(a)), 0x77u);
  // Allocation resumes exactly at end.
  const Address b = Alloc(64);
  EXPECT_EQ(b, end);
}

TEST_F(HlogTest, TailMinusBeginTracksGrowth) {
  EXPECT_EQ(log_.TailMinusBegin(), 0u);
  Alloc(64);
  Alloc(64);
  EXPECT_EQ(log_.TailMinusBegin(), 128u);
}

}  // namespace
}  // namespace cpr::faster
