// On-disk checkpoint format round-trips (full and delta), LATEST publication
// atomicity, and epoch drain-list edge cases.
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "epoch/epoch.h"
#include "io/file.h"
#include "txdb/checkpoint_io.h"

namespace cpr::txdb {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_fmt"); }

// Reads the generation recovery tries first: the one LATEST publishes.
Status ReadPublished(const std::string& dir, CheckpointMeta* meta,
                     std::vector<char>* data) {
  const std::vector<uint64_t> order = CheckpointChain(dir).RecoveryOrder();
  if (order.empty()) return Status::NotFound("no checkpoint in " + dir);
  return ReadCheckpointAt(dir, order.front(), meta, data);
}

CheckpointMeta SampleMeta(uint64_t version, bool is_delta) {
  CheckpointMeta m;
  m.version = version;
  m.is_delta = is_delta;
  m.table_schemas = {{100, 8}, {50, 16}};
  m.points = {{0, 17}, {1, 42}, {2, 0}};
  return m;
}

TEST(CheckpointFormatTest, FullRoundTripPreservesEverything) {
  const std::string dir = FreshDir();
  std::vector<char> data(100 * 8 + 50 * 16);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  ASSERT_TRUE(WriteCheckpoint(dir, SampleMeta(3, false), data, false).ok());

  CheckpointMeta got;
  std::vector<char> got_data;
  ASSERT_TRUE(ReadPublished(dir, &got, &got_data).ok());
  EXPECT_EQ(got.version, 3u);
  EXPECT_FALSE(got.is_delta);
  EXPECT_EQ(got.data_bytes, data.size());
  ASSERT_EQ(got.table_schemas.size(), 2u);
  EXPECT_EQ(got.table_schemas[0], (std::pair<uint64_t, uint32_t>{100, 8}));
  EXPECT_EQ(got.table_schemas[1], (std::pair<uint64_t, uint32_t>{50, 16}));
  ASSERT_EQ(got.points.size(), 3u);
  EXPECT_EQ(got.points[1].thread_id, 1u);
  EXPECT_EQ(got.points[1].serial, 42u);
  EXPECT_EQ(got_data, data);
}

TEST(CheckpointFormatTest, DeltaRoundTripKeepsFlagAndArbitrarySize) {
  const std::string dir = FreshDir();
  std::vector<char> data(3 * (kDeltaEntryHeaderBytes + 8), 0x5A);
  ASSERT_TRUE(WriteCheckpoint(dir, SampleMeta(7, true), data, false).ok());
  CheckpointMeta got;
  std::vector<char> got_data;
  ASSERT_TRUE(ReadCheckpointAt(dir, 7, &got, &got_data).ok());
  EXPECT_TRUE(got.is_delta);
  EXPECT_EQ(got_data.size(), data.size());
}

TEST(CheckpointFormatTest, EmptyDataIsLegal) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(
      WriteCheckpoint(dir, SampleMeta(1, true), {}, false).ok());
  CheckpointMeta got;
  std::vector<char> got_data;
  ASSERT_TRUE(ReadPublished(dir, &got, &got_data).ok());
  EXPECT_EQ(got_data.size(), 0u);
}

TEST(CheckpointFormatTest, LatestAlwaysNamesTheNewestVersion) {
  const std::string dir = FreshDir();
  for (uint64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(WriteCheckpoint(dir, SampleMeta(v, v > 1), {}, false).ok());
  }
  CheckpointMeta got;
  std::vector<char> got_data;
  ASSERT_TRUE(ReadPublished(dir, &got, &got_data).ok());
  EXPECT_EQ(got.version, 4u);
  // Earlier versions remain individually addressable (delta chains).
  ASSERT_TRUE(ReadCheckpointAt(dir, 2, &got, &got_data).ok());
  EXPECT_EQ(got.version, 2u);
}

TEST(CheckpointFormatTest, ReadMissingVersionFails) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(WriteCheckpoint(dir, SampleMeta(1, false), {}, false).ok());
  CheckpointMeta got;
  std::vector<char> got_data;
  EXPECT_FALSE(ReadCheckpointAt(dir, 9, &got, &got_data).ok());
}

TEST(CheckpointFormatTest, SyncFlagStillProducesReadableFiles) {
  const std::string dir = FreshDir();
  std::vector<char> data(16, 1);
  CheckpointMeta m = SampleMeta(1, false);
  m.table_schemas = {{2, 8}};
  ASSERT_TRUE(WriteCheckpoint(dir, m, data, /*sync=*/true).ok());
  CheckpointMeta got;
  std::vector<char> got_data;
  ASSERT_TRUE(ReadPublished(dir, &got, &got_data).ok());
  EXPECT_EQ(got_data, data);
}

}  // namespace
}  // namespace cpr::txdb

namespace cpr {
namespace {

// The drain list is bounded; overflowing it falls back to a synchronous
// wait-and-run, never drops an action.
TEST(EpochEdgeTest, DrainListOverflowBackstopRunsEveryAction) {
  EpochFramework epoch;
  std::atomic<int> runs{0};
  // No protected threads: each action runs inline, so even far more than
  // kDrainListSize actions all execute.
  for (int i = 0; i < 1000; ++i) {
    epoch.BumpEpoch([&] { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 1000);
}

TEST(EpochEdgeTest, WaitUntilSafeReturnsOnceTheSlotHolderRefreshes) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  const uint64_t target = epoch.BumpEpoch();
  // The protected slot is refreshed by another thread: WaitUntilSafe keeps
  // recomputing the safe epoch until that refresh makes the target safe.
  std::thread holder([&] {
    epoch.RefreshSlot(slot);
    epoch.ReleaseSlot(slot);
  });
  epoch.WaitUntilSafe(target - 1);
  EXPECT_GE(epoch.safe_epoch(), target - 1);
  holder.join();
}

TEST(EpochEdgeTest, ManySequentialAcquireReleaseCyclesReuseSlots) {
  EpochFramework epoch(4);  // tiny table: slots must be recycled
  for (int i = 0; i < 100; ++i) {
    const int32_t slot = epoch.AcquireSlot();
    ASSERT_GE(slot, 0);
    epoch.RefreshSlot(slot);
    epoch.ReleaseSlot(slot);
  }
  EXPECT_EQ(epoch.ProtectedThreadCount(), 0u);
}

}  // namespace
}  // namespace cpr
