#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "io/fault_injection.h"
#include "io/file.h"
#include "io/generations.h"
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

// -- GenerationChain ----------------------------------------------------------

void Touch(const std::string& path, const std::string& text = "x") {
  File f;
  ASSERT_TRUE(File::Open(path, /*create=*/true, &f).ok());
  ASSERT_TRUE(f.WriteAt(0, text.data(), text.size()).ok());
}

TEST(GenerationChainTest, ParseAcceptsOnlyTheChainsOwnNames) {
  const GenerationChain chain("/unused", "ckpt.", ".meta");
  struct Case {
    const char* name;
    bool ok;
    uint64_t gen;
  };
  const Case cases[] = {
      {"ckpt.1.meta", true, 1},
      {"ckpt.0.meta", true, 0},
      {"ckpt.18446744073709551615.meta", true, UINT64_MAX},
      {"ckpt.18446744073709551616.meta", false, 0},  // 2^64 overflows
      {"ckpt.99999999999999999999999.meta", false, 0},
      {"ckpt..meta", false, 0},  // no digits
      {"ckpt.meta", false, 0},
      {"ckpt.1x.meta", false, 0},
      {"ckpt.-1.meta", false, 0},
      {"ckpt.01.meta", false, 0},  // not the name of generation 1
      {"ckpt.1.snap", false, 0},
      {"index.1.meta", false, 0},
      {"ckpt.1.meta.tmp", false, 0},
      {"LATEST", false, 0},
  };
  for (const Case& c : cases) {
    uint64_t gen = 0;
    EXPECT_EQ(chain.Parse(c.name, &gen), c.ok) << c.name;
    if (c.ok) {
      EXPECT_EQ(gen, c.gen) << c.name;
      EXPECT_EQ(chain.Name(gen), c.name);
    }
  }
}

TEST(GenerationChainTest, RecoveryOrderPutsThePublishedGenerationFirst) {
  struct Case {
    const char* what;
    LatestForm form;
    std::vector<std::string> files;
    const char* latest;  // nullptr: no LATEST file
    std::vector<uint64_t> want;
  };
  const std::vector<std::string> three = {"g.2.meta", "g.10.meta",
                                          "g.7.meta"};
  const Case cases[] = {
      {"empty directory", LatestForm::kNumber, {}, nullptr, {}},
      {"foreign and overflowing names are ignored",
       LatestForm::kNumber,
       {"g.3.meta", "g.x.meta", "g.99999999999999999999.meta", "g.5.snap",
        "h.4.meta", "g.6.meta.tmp"},
       nullptr,
       {3}},
      {"newest first", LatestForm::kNumber, three, nullptr, {10, 7, 2}},
      {"LATEST first", LatestForm::kNumber, three, "7", {7, 10, 2}},
      {"LATEST with a newline", LatestForm::kNumber, three, "2\n", {2, 10, 7}},
      {"garbage LATEST is ignored", LatestForm::kNumber, three, "xyzzy",
       {10, 7, 2}},
      {"LATEST naming a missing generation is ignored", LatestForm::kNumber,
       three, "8", {10, 7, 2}},
      {"name-form LATEST", LatestForm::kName, three, "g.7.meta", {7, 10, 2}},
      {"a number in a name-form LATEST is ignored", LatestForm::kName, three,
       "7", {10, 7, 2}},
      {"a chain without LATEST never reads one", LatestForm::kNone, three,
       "7", {10, 7, 2}},
  };
  for (const Case& c : cases) {
    const std::string dir = TempDir();
    for (const std::string& f : c.files) Touch(dir + "/" + f);
    if (c.latest != nullptr) Touch(dir + "/LATEST", c.latest);
    const GenerationChain chain(dir, "g.", ".meta", c.form);
    EXPECT_EQ(chain.RecoveryOrder(), c.want) << c.what;
  }
}

TEST(GenerationChainTest, PublishWritesTheChainsLatestForm) {
  const std::string dir = TempDir();
  for (uint64_t g : {3, 4}) Touch(dir + "/m." + std::to_string(g) + ".meta");
  const GenerationChain number(dir, "m.", ".meta", LatestForm::kNumber);
  ASSERT_TRUE(number.Publish(3, /*sync=*/true).ok());
  EXPECT_EQ(number.RecoveryOrder(), (std::vector<uint64_t>{3, 4}));
  const GenerationChain name(dir, "m.", ".meta", LatestForm::kName);
  EXPECT_EQ(name.RecoveryOrder(), (std::vector<uint64_t>{4, 3}));
  ASSERT_TRUE(name.Publish(3, /*sync=*/false).ok());
  EXPECT_EQ(name.RecoveryOrder(), (std::vector<uint64_t>{3, 4}));
  const GenerationChain none(dir, "n.", ".meta");
  ASSERT_TRUE(none.Publish(9, /*sync=*/true).ok());
  EXPECT_EQ(name.RecoveryOrder(), (std::vector<uint64_t>{3, 4}))
      << "a chain without LATEST must not overwrite another chain's";
}

TEST(GenerationChainTest, WalkRule) {
  const Status corrupt = Status::Corruption("bad");
  const Status io = Status::IoError("eio");
  const Status bad_option = Status::InvalidArgument("wrong size");
  struct Case {
    const char* what;
    std::vector<uint64_t> gens;
    std::vector<Status> results;  // per generation, newest first
    Status::Code want;
    std::vector<uint64_t> want_tried;
  };
  const Case cases[] = {
      {"no generation is NotFound", {}, {}, Status::Code::kNotFound, {}},
      {"the first that loads wins",
       {1, 2, 3},
       {corrupt, Status::Ok(), Status::Ok()},
       Status::Code::kOk,
       {3, 2}},
      {"every generation corrupt is Corruption",
       {1, 2},
       {corrupt, corrupt},
       Status::Code::kCorruption,
       {2, 1}},
      {"a last error other than Corruption keeps its code",
       {1, 2},
       {corrupt, bad_option},
       Status::Code::kInvalidArgument,
       {2, 1}},
      {"an IoError last keeps its code",
       {1, 2},
       {corrupt, io},
       Status::Code::kIoError,
       {2, 1}},
      {"only the last error counts",
       {1, 2},
       {io, corrupt},
       Status::Code::kCorruption,
       {2, 1}},
  };
  for (const Case& c : cases) {
    const std::string dir = TempDir();
    for (uint64_t g : c.gens) Touch(dir + "/w." + std::to_string(g) + ".meta");
    const GenerationChain chain(dir, "w.", ".meta", LatestForm::kNumber);
    std::vector<uint64_t> tried;
    const Status s = chain.Walk([&](uint64_t gen) {
      tried.push_back(gen);
      return c.results[tried.size() - 1];
    });
    EXPECT_EQ(s.code(), c.want) << c.what;
    EXPECT_EQ(tried, c.want_tried) << c.what;
  }
}

TEST(GenerationChainTest, PruneDeletesOnlyThisChainOutsideTheKeepSet) {
  const std::string dir = TempDir();
  for (const char* f : {"p.1.meta", "p.2.meta", "p.3.meta", "p.1.data",
                        "q.1.meta", "LATEST"}) {
    Touch(dir + "/" + f);
  }
  const GenerationChain chain(dir, "p.", ".meta", LatestForm::kNumber);
  ASSERT_TRUE(chain.Prune({2}).ok());
  EXPECT_EQ(chain.List(), (std::vector<uint64_t>{2}));
  for (const char* f : {"p.1.data", "q.1.meta", "LATEST"}) {
    EXPECT_TRUE(FileExists(dir + "/" + f)) << f;
  }
}

TEST(GenerationChainTest, PruneAfterCrashDeletesNothing) {
  // Every delete goes through the fault injector: after a simulated power
  // loss the directory is frozen exactly as it was.
  const std::string dir = TempDir();
  for (const char* f : {"p.1.meta", "p.2.meta", "p.3.meta"}) {
    Touch(dir + "/" + f);
  }
  FaultInjector injector;
  FaultInjector::Install(&injector);
  injector.CrashNow();
  const GenerationChain chain(dir, "p.", ".meta");
  EXPECT_FALSE(chain.Prune({3}).ok());
  FaultInjector::Install(nullptr);
  EXPECT_EQ(chain.List(), (std::vector<uint64_t>{3, 2, 1}));
}

}  // namespace
}  // namespace cpr
