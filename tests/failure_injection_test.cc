// Failure injection: corrupted, truncated, or missing durability artifacts
// must surface as clean errors (never crashes, never silently wrong data),
// and partially written logs must replay exactly their valid prefix.
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "faster/faster.h"
#include "io/blob.h"
#include "io/file.h"
#include "txdb/db.h"
#include "util/crc32c.h"

namespace cpr {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_inject"); }

void WriteGarbage(const std::string& path, const char* data, size_t len) {
  File f;
  ASSERT_TRUE(File::Open(path, /*create=*/true, &f).ok());
  ASSERT_TRUE(f.WriteAt(0, data, len).ok());
}

// -- Transactional database ---------------------------------------------------

txdb::TransactionalDb::Options TxdbOpts(txdb::DurabilityMode mode,
                                        const std::string& dir) {
  txdb::TransactionalDb::Options o;
  o.mode = mode;
  o.durability_dir = dir;
  return o;
}

void MakeTxdbCheckpoint(const std::string& dir) {
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
  const uint32_t t = db.CreateTable(8, 8);
  txdb::ThreadContext* ctx = db.RegisterThread();
  txdb::Transaction txn;
  txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 1});
  db.Execute(*ctx, txn);
  db.DeregisterThread(ctx);
  db.WaitForCommit(db.RequestCommit());
}

TEST(TxdbInjectionTest, GarbageLatestFileFallsBackToScan) {
  // A trashed LATEST hint must not take down an otherwise intact store:
  // recovery falls back to scanning the directory for valid generations.
  const std::string dir = FreshDir();
  MakeTxdbCheckpoint(dir);
  WriteGarbage(dir + "/LATEST", "not-a-number", 12);
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
  const uint32_t t = db.CreateTable(8, 8);
  ASSERT_TRUE(db.Recover().ok());
  int64_t value;
  std::memcpy(&value, db.table(t).live(0), sizeof(value));
  EXPECT_EQ(value, 1);
}

TEST(TxdbInjectionTest, MissingMetaFileIsAnError) {
  const std::string dir = FreshDir();
  MakeTxdbCheckpoint(dir);
  ASSERT_TRUE(RemoveFileIfExists(dir + "/v1.meta").ok());
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
  db.CreateTable(8, 8);
  EXPECT_FALSE(db.Recover().ok());
}

TEST(TxdbInjectionTest, TruncatedMetaIsCorruption) {
  const std::string dir = FreshDir();
  MakeTxdbCheckpoint(dir);
  WriteGarbage(dir + "/v1.meta", "\x01\x02\x03", 3);
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
  db.CreateTable(8, 8);
  const Status s = db.Recover();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST(TxdbInjectionTest, StaleLatestAfterCrashMidPublishUsesOldCommit) {
  // Simulate a crash between writing v2's files and publishing LATEST:
  // recovery must come up at v1.
  const std::string dir = FreshDir();
  int64_t v1_value = 0;
  {
    txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
    const uint32_t t = db.CreateTable(8, 8);
    txdb::ThreadContext* ctx = db.RegisterThread();
    txdb::Transaction txn;
    txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 5});
    db.Execute(*ctx, txn);
    db.DeregisterThread(ctx);
    db.WaitForCommit(db.RequestCommit());
    v1_value = 5;
  }
  // Fake the "crash": v2 data exists but LATEST still says 1.
  WriteGarbage(dir + "/v2.data", "\0\0\0\0\0\0\0\0", 8);
  WriteGarbage(dir + "/LATEST", "1", 1);
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kCpr, dir));
  const uint32_t t = db.CreateTable(8, 8);
  ASSERT_TRUE(db.Recover().ok());
  int64_t value;
  std::memcpy(&value, db.table(t).live(0), sizeof(value));
  EXPECT_EQ(value, v1_value);
}

TEST(WalInjectionTest, TrailingGarbageReplaysValidPrefix) {
  const std::string dir = FreshDir();
  {
    txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kWal, dir));
    const uint32_t t = db.CreateTable(8, 8);
    txdb::ThreadContext* ctx = db.RegisterThread();
    txdb::Transaction txn;
    txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 3, nullptr, 2});
    for (int i = 0; i < 10; ++i) db.Execute(*ctx, txn);
    db.DeregisterThread(ctx);
    db.WaitForCommit(db.RequestCommit());
  }
  // Append a torn record: a size prefix promising more bytes than exist.
  {
    File f;
    ASSERT_TRUE(File::Open(dir + "/wal.log", /*create=*/false, &f).ok());
    const uint32_t bogus_size = 1 << 20;
    ASSERT_TRUE(
        f.WriteAt(f.Size(), &bogus_size, sizeof(bogus_size)).ok());
  }
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kWal, dir));
  const uint32_t t = db.CreateTable(8, 8);
  ASSERT_TRUE(db.Recover().ok());
  int64_t value;
  std::memcpy(&value, db.table(t).live(3), sizeof(value));
  EXPECT_EQ(value, 20);
}

TEST(WalInjectionTest, ChecksummedButShortRecordIsCorruption) {
  // A record whose checksum verifies but whose body ends inside its own
  // header is a format error, not a torn tail: replay must refuse it
  // without reading past the record.
  const std::string dir = FreshDir();
  {
    txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kWal, dir));
    const uint32_t t = db.CreateTable(8, 8);
    txdb::ThreadContext* ctx = db.RegisterThread();
    txdb::Transaction txn;
    txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 3, nullptr, 2});
    db.Execute(*ctx, txn);
    db.DeregisterThread(ctx);
    db.WaitForCommit(db.RequestCommit());
  }
  {
    File f;
    ASSERT_TRUE(File::Open(dir + "/wal.log", /*create=*/false, &f).ok());
    const uint32_t thread_id = 0;  // the body stops after its first field
    const uint32_t size = sizeof(thread_id);
    const uint32_t crc = Crc32c(&thread_id, sizeof(thread_id));
    char record[3 * sizeof(uint32_t)];
    std::memcpy(record, &size, 4);
    std::memcpy(record + 4, &crc, 4);
    std::memcpy(record + 8, &thread_id, 4);
    ASSERT_TRUE(f.WriteAt(f.Size(), record, sizeof(record)).ok());
  }
  txdb::TransactionalDb db(TxdbOpts(txdb::DurabilityMode::kWal, dir));
  db.CreateTable(8, 8);
  EXPECT_EQ(db.Recover().code(), Status::Code::kCorruption);
}

// -- FASTER -------------------------------------------------------------------

faster::FasterKv::Options KvOpts(const std::string& dir) {
  faster::FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.page_bits = 14;
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

uint64_t MakeKvCheckpoint(const std::string& dir) {
  faster::FasterKv kv(KvOpts(dir));
  faster::Session* s = kv.StartSession();
  const int64_t v = 1;
  for (uint64_t k = 0; k < 100; ++k) kv.Upsert(*s, k, &v);
  kv.StopSession(s);
  uint64_t token = 0;
  kv.Checkpoint(faster::CommitVariant::kFoldOver, true, nullptr, &token);
  kv.WaitForCheckpoint(token);
  return token;
}

TEST(FasterInjectionTest, GarbageLatestFallsBackToScan) {
  // Same contract as the txdb side: a corrupt LATEST hint degrades to a
  // directory scan, not a failed recovery.
  const std::string dir = FreshDir();
  MakeKvCheckpoint(dir);
  WriteGarbage(dir + "/LATEST", "xyzzy", 5);
  faster::FasterKv kv(KvOpts(dir));
  ASSERT_TRUE(kv.Recover().ok());
  faster::Session* s = kv.StartSession();
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, 7, &out), faster::OpStatus::kOk);
  EXPECT_EQ(out, 1);
  kv.StopSession(s);
}

TEST(FasterInjectionTest, MissingIndexFileIsAnError) {
  const std::string dir = FreshDir();
  MakeKvCheckpoint(dir);
  std::string cmd = "rm -f " + dir + "/index.*.dat";
  (void)!system(("bash -c 'rm -f " + dir + "/index.*.dat'").c_str());
  (void)cmd;
  faster::FasterKv kv(KvOpts(dir));
  EXPECT_FALSE(kv.Recover().ok());
}

TEST(FasterInjectionTest, TruncatedMetadataIsCorruption) {
  const std::string dir = FreshDir();
  const uint64_t token = MakeKvCheckpoint(dir);
  WriteGarbage(dir + "/ckpt." + std::to_string(token) + ".meta", "\x01", 1);
  faster::FasterKv kv(KvOpts(dir));
  const Status s = kv.Recover();
  EXPECT_FALSE(s.ok());
}

TEST(FasterInjectionTest, StaleLatestPointsToIntactOlderCommit) {
  const std::string dir = FreshDir();
  uint64_t first_token = 0;
  {
    faster::FasterKv kv(KvOpts(dir));
    faster::Session* s = kv.StartSession();
    const int64_t v1 = 1;
    for (uint64_t k = 0; k < 50; ++k) kv.Upsert(*s, k, &v1);
    kv.Checkpoint(faster::CommitVariant::kFoldOver, true, nullptr,
                  &first_token);
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    const int64_t v2 = 2;
    for (uint64_t k = 0; k < 50; ++k) kv.Upsert(*s, k, &v2);
    uint64_t second = 0;
    kv.Checkpoint(faster::CommitVariant::kFoldOver, false, nullptr, &second);
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    kv.StopSession(s);
  }
  // Crash "before LATEST was published" for the second commit.
  const std::string text = std::to_string(first_token);
  WriteGarbage(dir + "/LATEST", text.data(), text.size());
  faster::FasterKv kv(KvOpts(dir));
  ASSERT_TRUE(kv.Recover().ok());
  faster::Session* s = kv.StartSession();
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, 7, &out), faster::OpStatus::kOk);
  EXPECT_EQ(out, 1) << "must recover the first commit's value";
  kv.StopSession(s);
}

TEST(FasterInjectionTest, NewTokensOrderAfterGenerationsFromAnotherBoot) {
  // A store recovered from generations numbered far above anything this
  // process would issue (written before a reboot, or on a host with longer
  // uptime, when tokens came from a boot-relative clock) must still number
  // its next generation after them. Otherwise WaitForCheckpoint returns
  // before the commit ends, GC deletes the new generation as the oldest,
  // and recovery goes back to the pre-restart value.
  const std::string dir = FreshDir();
  {
    faster::FasterKv kv(KvOpts(dir));
    faster::Session* s = kv.StartSession();
    for (int64_t v = 1; v <= 3; ++v) {
      kv.Upsert(*s, 7, &v);
      ASSERT_TRUE(kv.Checkpoint(faster::CommitVariant::kFoldOver, true));
      while (kv.CheckpointInProgress()) kv.Refresh(*s);
    }
    kv.StopSession(s);
  }
  // Renumber every generation 2^60 up. The meta payload starts with its
  // token; the magic is read from the blob header.
  constexpr uint64_t kShift = 1ull << 60;
  std::vector<std::string> names;
  ASSERT_TRUE(ListDirectory(dir, &names).ok());
  uint64_t newest = 0;
  for (const std::string& name : names) {
    const size_t suffix = name.size() - std::string(".meta").size();
    if (name.rfind("ckpt.", 0) != 0 || name.size() <= 10 ||
        name.compare(suffix, std::string::npos, ".meta") != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    uint64_t magic = 0;
    {
      File f;
      ASSERT_TRUE(File::Open(path, /*create=*/false, &f).ok());
      ASSERT_TRUE(f.ReadAt(0, &magic, sizeof(magic)).ok());
    }
    std::vector<char> payload;
    ASSERT_TRUE(ReadCheckedBlob(path, magic, &payload).ok());
    const uint64_t token = std::stoull(name.substr(5, suffix - 5)) + kShift;
    std::memcpy(payload.data(), &token, sizeof(token));
    ASSERT_TRUE(WriteCheckedBlob(dir + "/ckpt." + std::to_string(token) +
                                     ".meta",
                                 magic, payload, /*sync=*/false)
                    .ok());
    ASSERT_TRUE(RemoveFileIfExists(path).ok());
    newest = std::max(newest, token);
  }
  ASSERT_NE(newest, 0u);
  const std::string latest = std::to_string(newest);
  WriteGarbage(dir + "/LATEST", latest.data(), latest.size());

  {
    faster::FasterKv kv(KvOpts(dir));
    ASSERT_TRUE(kv.Recover().ok());
    faster::Session* s = kv.StartSession();
    const int64_t v = 42;
    kv.Upsert(*s, 7, &v);
    kv.StopSession(s);
    uint64_t token = 0;
    ASSERT_TRUE(kv.Checkpoint(faster::CommitVariant::kFoldOver, false,
                              nullptr, &token));
    EXPECT_GT(token, newest);
    const Status waited = kv.WaitForCheckpoint(token);
    const bool returned_early = kv.CheckpointInProgress();
    // Drive the commit to its end either way so the store shuts down cleanly.
    while (kv.CheckpointInProgress()) {
      kv.epoch().TickUnprotected();
      kv.TickStateMachine();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(waited.ok());
    EXPECT_FALSE(returned_early)
        << "WaitForCheckpoint returned while the commit was in progress";
    EXPECT_TRUE(FileExists(dir + "/ckpt." + std::to_string(token) + ".meta"))
        << "checkpoint GC deleted the newest generation";
  }
  faster::FasterKv kv(KvOpts(dir));
  ASSERT_TRUE(kv.Recover().ok());
  faster::Session* s = kv.StartSession();
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, 7, &out), faster::OpStatus::kOk);
  EXPECT_EQ(out, 42) << "recovery must load the post-restart commit";
  kv.StopSession(s);
}

}  // namespace
}  // namespace cpr
