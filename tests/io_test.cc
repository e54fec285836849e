#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_pool.h"

namespace cpr {
namespace {

std::string TempDir() { return cpr::testing::FreshTestDir("cpr_io_test"); }

TEST(FileTest, WriteThenReadRoundTrip) {
  File f;
  ASSERT_TRUE(File::Open(TempDir() + "/a.bin", true, &f).ok());
  const std::string payload = "hello checkpoint";
  ASSERT_TRUE(f.WriteAt(0, payload.data(), payload.size()).ok());
  std::string back(payload.size(), '\0');
  ASSERT_TRUE(f.ReadAt(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  EXPECT_EQ(f.Size(), payload.size());
}

TEST(FileTest, PositionalWritesAreIndependent) {
  File f;
  ASSERT_TRUE(File::Open(TempDir() + "/b.bin", true, &f).ok());
  ASSERT_TRUE(f.WriteAt(100, "xyz", 3).ok());
  ASSERT_TRUE(f.WriteAt(0, "abc", 3).ok());
  char buf[3];
  ASSERT_TRUE(f.ReadAt(100, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "xyz", 3), 0);
  ASSERT_TRUE(f.ReadAt(0, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
}

TEST(FileTest, OpenMissingFileFails) {
  File f;
  const Status s = File::Open("/tmp/definitely/not/here.bin", false, &f);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIoError);
}

TEST(FileTest, ReopenPreservesContents) {
  const std::string path = TempDir() + "/c.bin";
  {
    File f;
    ASSERT_TRUE(File::Open(path, true, &f).ok());
    ASSERT_TRUE(f.WriteAt(0, "data", 4).ok());
  }
  File f;
  ASSERT_TRUE(File::Open(path, false, &f).ok());
  char buf[4];
  ASSERT_TRUE(f.ReadAt(0, buf, 4).ok());
  EXPECT_EQ(std::memcmp(buf, "data", 4), 0);
}

TEST(FileTest, MoveTransfersOwnership) {
  File a;
  ASSERT_TRUE(File::Open(TempDir() + "/d.bin", true, &a).ok());
  File b = std::move(a);
  EXPECT_FALSE(a.is_open());
  EXPECT_TRUE(b.is_open());
  EXPECT_TRUE(b.WriteAt(0, "z", 1).ok());
}

TEST(FsHelpersTest, CreateNestedDirectoriesAndFileExists) {
  const std::string dir = TempDir() + "/x/y/z";
  ASSERT_TRUE(CreateDirectories(dir).ok());
  EXPECT_FALSE(FileExists(dir + "/f"));
  File f;
  ASSERT_TRUE(File::Open(dir + "/f", true, &f).ok());
  EXPECT_TRUE(FileExists(dir + "/f"));
  EXPECT_TRUE(RemoveFileIfExists(dir + "/f").ok());
  EXPECT_FALSE(FileExists(dir + "/f"));
  EXPECT_TRUE(RemoveFileIfExists(dir + "/f").ok());  // idempotent
}

TEST(IoPoolTest, RunsAllJobs) {
  IoPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { done.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(pool.jobs_completed(), 100u);
}

TEST(IoPoolTest, DrainWaitsForInFlightWork) {
  IoPool pool(2);
  std::atomic<bool> finished{false};
  pool.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished = true;
  });
  pool.Drain();
  EXPECT_TRUE(finished.load());
}

TEST(IoPoolTest, JobsCanSubmitJobs) {
  IoPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    done.fetch_add(1);
    pool.Submit([&] { done.fetch_add(1); });
  });
  // Drain twice: the nested job may be submitted after the first drain
  // observes an empty queue.
  pool.Drain();
  pool.Drain();
  EXPECT_EQ(done.load(), 2);
}

TEST(IoPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> done{0};
  {
    IoPool pool(2);
    for (int i = 0; i < 10; ++i) pool.Submit([&] { done.fetch_add(1); });
    pool.Drain();
  }
  EXPECT_EQ(done.load(), 10);
}

TEST(IoPoolTest, ParallelFileWritesLand) {
  IoPool pool(4);
  File f;
  ASSERT_TRUE(File::Open(TempDir() + "/par.bin", true, &f).ok());
  constexpr int kChunks = 64;
  for (int i = 0; i < kChunks; ++i) {
    pool.Submit([&f, i] {
      const char byte = static_cast<char>(i);
      std::vector<char> chunk(128, byte);
      f.WriteAt(static_cast<uint64_t>(i) * 128, chunk.data(), chunk.size());
    });
  }
  pool.Drain();
  for (int i = 0; i < kChunks; ++i) {
    std::vector<char> chunk(128);
    ASSERT_TRUE(
        f.ReadAt(static_cast<uint64_t>(i) * 128, chunk.data(), 128).ok());
    for (char c : chunk) EXPECT_EQ(c, static_cast<char>(i));
  }
}

}  // namespace
}  // namespace cpr
