#include <gtest/gtest.h>

#include "test_dirs.h"

#include <cstring>
#include <string>

#include "txdb/db.h"
#include "txdb/table.h"

namespace cpr::txdb {
namespace {

std::string TempDir() { return cpr::testing::FreshTestDir("cpr_txdb_basic"); }

TransactionalDb::Options NoDurability() {
  TransactionalDb::Options o;
  o.mode = DurabilityMode::kNone;
  o.durability_dir = TempDir();
  return o;
}

int64_t RowValue(Table& t, uint64_t row) {
  int64_t v;
  std::memcpy(&v, t.live(row), sizeof(v));
  return v;
}

TEST(TableTest, DualVersionLayout) {
  Table t(16, 8, /*dual_version=*/true);
  EXPECT_EQ(t.rows(), 16u);
  EXPECT_EQ(t.value_size(), 8u);
  int64_t v = 42;
  std::memcpy(t.live(3), &v, sizeof(v));
  t.PreserveStable(3);
  v = 43;
  std::memcpy(t.live(3), &v, sizeof(v));
  int64_t live, stable;
  std::memcpy(&live, t.live(3), sizeof(live));
  std::memcpy(&stable, t.stable(3), sizeof(stable));
  EXPECT_EQ(live, 43);
  EXPECT_EQ(stable, 42);
}

TEST(TableTest, ZeroInitialized) {
  Table t(128, 16, true);
  for (uint64_t r = 0; r < t.rows(); ++r) {
    EXPECT_EQ(t.header(r).version.load(), 0u);
    EXPECT_FALSE(t.header(r).latch.IsLocked());
    EXPECT_EQ(RowValue(t, r), 0);
  }
}

TEST(TableTest, LargeValuesDoNotOverlap) {
  Table t(8, 100, true);
  std::vector<char> a(100, 'a'), b(100, 'b');
  std::memcpy(t.live(0), a.data(), 100);
  std::memcpy(t.live(1), b.data(), 100);
  EXPECT_EQ(std::memcmp(t.live(0), a.data(), 100), 0);
  EXPECT_EQ(std::memcmp(t.live(1), b.data(), 100), 0);
}

TEST(DbTest, WriteThenReadBack) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(100, 8);
  ThreadContext* ctx = db.RegisterThread();
  int64_t v = 7;
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kWrite, 5, &v, 0});
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  EXPECT_EQ(RowValue(db.table(t), 5), 7);
  db.DeregisterThread(ctx);
}

TEST(DbTest, AddAccumulates) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 2, nullptr, 5});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  }
  EXPECT_EQ(RowValue(db.table(t), 2), 20);
  db.DeregisterThread(ctx);
}

TEST(DbTest, MultiOpTransactionAllOrNothingLocks) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  // Simulate a conflicting holder on row 3.
  ASSERT_TRUE(db.table(t).header(3).latch.TryLock());
  int64_t v = 1;
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kWrite, 1, &v, 0});
  txn.ops.push_back(TxnOp{t, OpType::kWrite, 3, &v, 0});
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kAbortedConflict);
  // NO-WAIT: nothing written, and row 1's lock was released on abort.
  EXPECT_EQ(RowValue(db.table(t), 1), 0);
  EXPECT_FALSE(db.table(t).header(1).latch.IsLocked());
  db.table(t).header(3).latch.Unlock();
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  EXPECT_EQ(RowValue(db.table(t), 1), 1);
  db.DeregisterThread(ctx);
}

TEST(DbTest, DuplicateRowInReadWriteSetIsDeduplicated) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 4, nullptr, 1});
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 4, nullptr, 1});  // same record
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  EXPECT_EQ(RowValue(db.table(t), 4), 2);
  db.DeregisterThread(ctx);
}

TEST(DbTest, ReadsCopyValues) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  int64_t v = 99;
  Transaction w;
  w.ops.push_back(TxnOp{t, OpType::kWrite, 0, &v, 0});
  ASSERT_EQ(db.Execute(*ctx, w), TxnResult::kCommitted);
  Transaction r;
  r.ops.push_back(TxnOp{t, OpType::kRead, 0, nullptr, 0});
  ASSERT_EQ(db.Execute(*ctx, r), TxnResult::kCommitted);
  int64_t copied;
  std::memcpy(&copied, ctx->read_buffer.data(), sizeof(copied));
  EXPECT_EQ(copied, 99);
  db.DeregisterThread(ctx);
}

TEST(DbTest, SerialCountsCommittedOnly) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  ASSERT_TRUE(db.table(t).header(0).latch.TryLock());
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 0, nullptr, 1});
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kAbortedConflict);
  db.table(t).header(0).latch.Unlock();
  EXPECT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  EXPECT_EQ(ctx->serial.load(), 1u);
  EXPECT_EQ(ctx->counters.aborted_txns, 1u);
  EXPECT_EQ(ctx->counters.committed_txns, 1u);
  EXPECT_EQ(db.TotalCommitted(), 1u);
  db.DeregisterThread(ctx);
}

TEST(DbTest, MultipleTablesIndependent) {
  TransactionalDb db(NoDurability());
  const uint32_t a = db.CreateTable(4, 8);
  const uint32_t b = db.CreateTable(4, 16);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{a, OpType::kAdd, 1, nullptr, 10});
  txn.ops.push_back(TxnOp{b, OpType::kAdd, 1, nullptr, 20});
  ASSERT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
  EXPECT_EQ(RowValue(db.table(a), 1), 10);
  EXPECT_EQ(RowValue(db.table(b), 1), 20);
  db.DeregisterThread(ctx);
}

TEST(DbTest, NullEngineRejectsRecovery) {
  TransactionalDb db(NoDurability());
  EXPECT_EQ(db.Recover().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(db.RequestCommit(), 0u);
  EXPECT_FALSE(db.CommitInProgress());
}

TEST(DbTest, AggregateCountersSumAcrossThreads) {
  TransactionalDb db(NoDurability());
  const uint32_t t = db.CreateTable(10, 8);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 0, nullptr, 1});
  for (int i = 0; i < 10; ++i) db.Execute(*ctx, txn);
  const BreakdownCounters agg = db.AggregateCounters();
  EXPECT_EQ(agg.committed_txns, 10u);
  EXPECT_GT(agg.exec_ns, 0u);
  db.DeregisterThread(ctx);
}

}  // namespace
}  // namespace cpr::txdb
