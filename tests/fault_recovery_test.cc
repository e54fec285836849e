// Randomized storage-fault recovery harness (the PR's robustness tentpole).
//
// Scripts the process-global FaultInjector against real workloads and
// asserts the CPR prefix contract across randomized crash points and
// corruption:
//   * recovery always lands on a valid, CPR-consistent prefix
//     (recovered state == exactly the transactions counted by the
//     recovered commit points);
//   * a corrupt checkpoint generation is never loaded — recovery walks
//     back to the newest valid one or fails with a clean error;
//   * an operation acknowledged as durable is never lost;
//   * a persistently failing checkpoint device degrades the server to
//     explicit NOT_DURABLE errors instead of hung sessions.
//
// Iteration counts scale with CPR_FAULT_ITERS (total randomized points,
// default 50); CPR_FAULT_SEED re-seeds the whole run for CI fuzzing.
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "certify/checker.h"
#include "certify/history.h"
#include "client/client.h"
#include "durability/provider.h"
#include "faster/faster.h"
#include "io/fault_injection.h"
#include "server/server.h"
#include "server/wire.h"
#include "shard/sharded_kv.h"
#include "txdb/db.h"
#include "txdb/txdb_backend.h"

namespace cpr {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_fault"); }

int EnvInt(const char* name, int dflt) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  const int v = std::atoi(s);
  return v > 0 ? v : dflt;
}

uint32_t BaseSeed() {
  return static_cast<uint32_t>(EnvInt("CPR_FAULT_SEED", 20260806));
}

// Randomized points per family, scaled so the defaults sum to ~60.
int TxdbIters() { return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 22 / 100); }
int FasterIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 22 / 100);
}
int CorruptIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 18 / 100);
}
int ShardedIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 18 / 100);
}
int TxnServerIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 20 / 100);
}
int RecoveryIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 20 / 100);
}
int SwitchIters() {
  return std::max(1, EnvInt("CPR_FAULT_ITERS", 50) * 18 / 100);
}

// Installs a fresh injector for the scope and guarantees uninstall even on
// early ASSERT exits.
struct InjectorScope {
  FaultInjector inj;
  InjectorScope() { FaultInjector::Install(&inj); }
  ~InjectorScope() { FaultInjector::Install(nullptr); }
};

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x10);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

// -- txdb CPR: randomized crash points ---------------------------------------

txdb::TransactionalDb::Options CprOpts(const std::string& dir, bool sync) {
  txdb::TransactionalDb::Options o;
  o.mode = txdb::DurabilityMode::kCpr;
  o.durability_dir = dir;
  o.sync_to_disk = sync;
  return o;
}

int64_t Row0(txdb::TransactionalDb& db, uint32_t t) {
  int64_t value = 0;
  std::memcpy(&value, db.table(t).live(0), sizeof(value));
  return value;
}

// One iteration: concurrent Add(1) traffic on a shared record, one clean
// commit, then a crash armed at a random persistence-op count while more
// commits are attempted. After the "power loss", recovery must come up on a
// consistent prefix at least as new as the last acknowledged commit.
void TxdbCrashPointIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;
  constexpr int kThreads = 3;
  std::mutex acked_mu;
  int64_t acked_sum = -1;  // sum of points of the last successful commit
  {
    txdb::TransactionalDb db(CprOpts(dir, /*sync=*/(seed & 1) != 0));
    const uint32_t t = db.CreateTable(4, 8);
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&] {
        txdb::ThreadContext* ctx = db.RegisterThread();
        txdb::Transaction txn;
        txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 1});
        int n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          db.Execute(*ctx, txn);
          if (++n % 8 == 0) db.Refresh(*ctx);
        }
        db.DeregisterThread(ctx);
      });
    }
    auto on_commit = [&](uint64_t, const Status& status,
                         const std::vector<txdb::CommitPoint>& pts) {
      // The callback now also fires on persistent checkpoint failure; only a
      // successful commit's points are durable acknowledgements.
      if (!status.ok()) return;
      int64_t sum = 0;
      for (const txdb::CommitPoint& p : pts) {
        sum += static_cast<int64_t>(p.serial);
      }
      std::lock_guard<std::mutex> lock(acked_mu);
      acked_sum = sum;
    };
    const int commits = 3 + static_cast<int>(rng() % 4);
    for (int c = 0; c < commits; ++c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      uint64_t v = 0;
      while ((v = db.RequestCommit(on_commit)) == 0) std::this_thread::yield();
      const Status s = db.WaitForCommit(v);
      if (c == 0) {
        // The baseline commit runs before any fault: it must succeed, and
        // everything it acknowledged must survive the crash below.
        ASSERT_TRUE(s.ok()) << s.message();
        guard.inj.CrashAfter(1 + rng() % 50);
      }
    }
    stop = true;
    for (auto& w : workers) w.join();
  }
  guard.inj.Reset();

  txdb::TransactionalDb db(CprOpts(dir, false));
  const uint32_t t = db.CreateTable(4, 8);
  std::vector<txdb::CommitPoint> points;
  ASSERT_TRUE(db.Recover(&points).ok());
  int64_t sum = 0;
  for (const txdb::CommitPoint& p : points) {
    sum += static_cast<int64_t>(p.serial);
  }
  int64_t acked = 0;
  {
    std::lock_guard<std::mutex> lock(acked_mu);
    acked = acked_sum;
  }
  ASSERT_GE(acked, 0) << "baseline commit callback never fired";
  EXPECT_GE(sum, acked) << "recovery lost an acknowledged commit";
  EXPECT_EQ(Row0(db, t), sum) << "recovered state is not the commit-point prefix";
}

TEST(FaultRecoveryTest, TxdbRandomizedCrashPoints) {
  const int iters = TxdbIters();
  for (int i = 0; i < iters; ++i) {
    TxdbCrashPointIteration(BaseSeed() + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- FASTER: randomized crash points -----------------------------------------

faster::FasterKv::Options KvOpts(const std::string& dir) {
  faster::FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.value_size = 8;
  o.page_bits = 14;
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

int64_t ReadSync(faster::FasterKv& kv, faster::Session& s, uint64_t key,
                 bool* found) {
  int64_t out = 0;
  const faster::OpStatus st = kv.Read(s, key, &out);
  if (st == faster::OpStatus::kPending) {
    int64_t v = 0;
    bool ok = false;
    s.set_async_callback([&](const faster::AsyncResult& r) {
      ok = r.found;
      if (r.found) std::memcpy(&v, r.value.data(), 8);
    });
    kv.CompletePending(s, true);
    s.set_async_callback(nullptr);
    *found = ok;
    return v;
  }
  *found = st == faster::OpStatus::kOk;
  return out;
}

// One iteration: two sessions RMW their own keys, one clean checkpoint, a
// crash at a random persistence op, more ops and checkpoint attempts (which
// must fail cleanly, not hang), then recovery. Every session must come back
// exactly at a commit point >= its acknowledged one, with its key's value
// equal to that point.
void FasterCrashPointIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;
  constexpr uint64_t kGuids[2] = {101, 202};
  uint64_t acked[2] = {0, 0};
  {
    faster::FasterKv kv(KvOpts(dir));
    faster::Session* s[2];
    for (int i = 0; i < 2; ++i) s[i] = kv.StartSession(kGuids[i]);
    auto pump = [&] {
      for (int i = 0; i < 2; ++i) {
        kv.CompletePending(*s[i]);
        kv.Refresh(*s[i]);
      }
    };
    auto run_ops = [&](int n) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < 2; ++i) {
          if (kv.Rmw(*s[i], kGuids[i], 1) == faster::OpStatus::kPending) {
            kv.CompletePending(*s[i], true);
          }
        }
      }
      pump();
    };
    auto note_acked = [&] {
      for (int i = 0; i < 2; ++i) {
        uint64_t p = 0;
        if (kv.DurableCommitPoint(kGuids[i], &p).ok()) acked[i] = p;
      }
    };
    run_ops(3 + static_cast<int>(rng() % 6));
    uint64_t token = 0;
    ASSERT_TRUE(kv.Checkpoint(faster::CommitVariant::kFoldOver,
                              /*include_index=*/true, nullptr, &token));
    while (kv.CheckpointInProgress()) pump();
    ASSERT_TRUE(kv.WaitForCheckpoint(token).ok());
    note_acked();

    guard.inj.CrashAfter(1 + rng() % 40);
    const int rounds = 2 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) {
      run_ops(1 + static_cast<int>(rng() % 6));
      const auto variant = (rng() & 1) != 0 ? faster::CommitVariant::kSnapshot
                                            : faster::CommitVariant::kFoldOver;
      if (kv.Checkpoint(variant, false, nullptr, &token)) {
        while (kv.CheckpointInProgress()) pump();  // must terminate: no hang
        if (kv.WaitForCheckpoint(token).ok()) note_acked();
      }
    }
    for (int i = 0; i < 2; ++i) kv.StopSession(s[i]);
  }
  guard.inj.Reset();

  faster::FasterKv kv(KvOpts(dir));
  ASSERT_TRUE(kv.Recover().ok());
  faster::Session* reader = kv.StartSession();
  for (int i = 0; i < 2; ++i) {
    uint64_t p = 0;
    ASSERT_TRUE(kv.DurableCommitPoint(kGuids[i], &p).ok());
    EXPECT_GE(p, acked[i]) << "guid " << kGuids[i]
                           << ": acknowledged-durable ops lost";
    bool found = false;
    const int64_t value = ReadSync(kv, *reader, kGuids[i], &found);
    ASSERT_TRUE(found) << "guid " << kGuids[i];
    EXPECT_EQ(value, static_cast<int64_t>(p))
        << "guid " << kGuids[i] << ": CPR prefix contract violated";
  }
  kv.StopSession(reader);
}

TEST(FaultRecoveryTest, FasterRandomizedCrashPoints) {
  const int iters = FasterIters();
  for (int i = 0; i < iters; ++i) {
    FasterCrashPointIteration(BaseSeed() + 1000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- Sharded: randomized crash points mid-coordinated round -------------------

int64_t BackendReadSync(kv::Backend& kv, kv::Session& s, uint64_t key,
                        bool* found) {
  int64_t out = 0;
  const faster::OpStatus st = kv.Read(s, key, &out);
  if (st == faster::OpStatus::kPending) {
    int64_t v = 0;
    bool ok = false;
    s.set_async_callback([&](const faster::AsyncResult& r) {
      ok = r.found;
      if (r.found) std::memcpy(&v, r.value.data(), 8);
    });
    kv.CompletePending(s, true);
    s.set_async_callback(nullptr);
    *found = ok;
    return v;
  }
  *found = st == faster::OpStatus::kOk;
  return out;
}

// One iteration on a 4-shard ShardedKv: two sessions spread RMWs over every
// shard, one clean coordinated round, then a crash armed at a random
// persistence op while more rounds run — each must conclude (degrade, not
// hang) even with some shards flushed and the manifest unpublished. Recovery
// must land on the newest complete manifest: no shard restored ahead of it,
// no acknowledged global commit point lost, and each session's surviving
// RMW count within [global point, issued].
void ShardedCrashPointIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;
  constexpr uint64_t kGuids[2] = {101, 202};
  constexpr int kSpread = 8;  // keys per session, hashed across the shards
  uint64_t acked[2] = {0, 0};
  uint64_t issued[2] = {0, 0};
  auto sharded_opts = [&] {
    kv::ShardedKv::Options o;
    o.base = KvOpts(dir);
    o.num_shards = 4;
    return o;
  };
  {
    kv::ShardedKv kv(sharded_opts());
    kv::Session* s[2];
    for (int i = 0; i < 2; ++i) s[i] = kv.StartSession(kGuids[i]);
    auto pump = [&] {
      for (int i = 0; i < 2; ++i) {
        kv.CompletePending(*s[i]);
        kv.Refresh(*s[i]);
      }
    };
    auto run_ops = [&](int n) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < 2; ++i) {
          const uint64_t key = kGuids[i] * 1000 + issued[i] % kSpread;
          if (kv.Rmw(*s[i], key, 1) == faster::OpStatus::kPending) {
            kv.CompletePending(*s[i], true);
          }
          ++issued[i];
        }
      }
      pump();
    };
    auto note_acked = [&] {
      for (int i = 0; i < 2; ++i) {
        uint64_t p = 0;
        if (kv.DurableCommitPoint(kGuids[i], &p).ok()) acked[i] = p;
      }
    };
    run_ops(3 + static_cast<int>(rng() % 6));
    uint64_t round = 0;
    ASSERT_TRUE(kv.Checkpoint(faster::CommitVariant::kFoldOver,
                              /*include_index=*/true, &round));
    while (kv.CheckpointInProgress()) pump();
    ASSERT_TRUE(kv.WaitForCheckpoint(round).ok());
    note_acked();
    ASSERT_GT(acked[0] + acked[1], 0u);

    guard.inj.CrashAfter(1 + rng() % 40);
    const int rounds = 2 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) {
      run_ops(1 + static_cast<int>(rng() % 6));
      if (kv.Checkpoint(faster::CommitVariant::kFoldOver, false, &round)) {
        while (kv.CheckpointInProgress()) pump();  // must terminate: no hang
        if (kv.WaitForCheckpoint(round).ok()) note_acked();
      }
    }
    for (int i = 0; i < 2; ++i) kv.StopSession(s[i]);
  }
  guard.inj.Reset();

  kv::ShardedKv kv(sharded_opts());
  ASSERT_TRUE(kv.Recover().ok());
  const std::vector<uint64_t> manifest = kv.ManifestShardTokens();
  ASSERT_EQ(manifest.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kv.shard(i).LastCheckpointToken(), manifest[i])
        << "shard " << i << " recovered ahead of the manifest";
  }
  kv::Session* reader = kv.StartSession(0);
  for (int i = 0; i < 2; ++i) {
    uint64_t p = 0;
    ASSERT_TRUE(kv.DurableCommitPoint(kGuids[i], &p).ok());
    EXPECT_GE(p, acked[i]) << "guid " << kGuids[i]
                           << ": acknowledged-durable ops lost";
    // Survivors: every op at or below the global point (on every shard, by
    // the manifest's min rule) plus possibly a few per-shard ops above it —
    // never more than was issued.
    uint64_t sum = 0;
    for (int k = 0; k < kSpread; ++k) {
      bool found = false;
      const int64_t v = BackendReadSync(kv, *reader, kGuids[i] * 1000 + k,
                                        &found);
      if (found) sum += static_cast<uint64_t>(v);
    }
    EXPECT_GE(sum, p) << "guid " << kGuids[i]
                      << ": recovered state below the global commit point";
    EXPECT_LE(sum, issued[i]) << "guid " << kGuids[i]
                              << ": replayed effects applied twice";
  }
  kv.StopSession(reader);
}

TEST(FaultRecoveryTest, ShardedRandomizedCrashPoints) {
  const int iters = ShardedIters();
  for (int i = 0; i < iters; ++i) {
    ShardedCrashPointIteration(BaseSeed() + 3000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- TXN sessions over the wire: randomized crash points ----------------------

// One iteration: a durable-ack TXN session against a served TxDbBackend
// commits a multi-key baseline batch under a covering checkpoint, then keeps
// issuing transactions — sometimes through a NO-WAIT conflict, sometimes
// through torn checkpoints — with a crash armed at a random persistence op.
// Every drain must conclude (degrade to NOT_DURABLE / ERROR, never hang).
// After the "power loss", the client reconnects to a recovered server and
// replays its unacknowledged suffix: each add must land exactly once, the
// acknowledged-durable prefix must survive, and a conflicted transaction's
// effects must never materialize.
void TxnServerCrashPointIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;

  auto backend_opts = [&] {
    txdb::TxDbBackend::Options o;
    o.db.durability_dir = dir;
    o.tables = {txdb::TxDbBackend::TableSpec{8, 8}};
    return o;
  };
  server::KvServerOptions so;
  so.num_workers = 2;
  so.idle_poll_ms = 1;

  auto add_op = [](uint64_t row, int64_t delta) {
    net::TxnWireOp op;
    op.kind = net::TxnOpKind::kAdd;
    op.row = row;
    op.delta = delta;
    return op;
  };

  int64_t adds_issued = 0;     // committed-or-replayable +1s on rows 0 and 1
  uint64_t durable_acked = 0;  // serial of the last kOk durable ack

  auto backend = std::make_unique<txdb::TxDbBackend>(backend_opts());
  auto server = std::make_unique<server::KvServer>(backend.get(), so);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  // The session journals its history; after recovery the certifier must
  // find zero violations regardless of where the crash point landed.
  certify::HistoryRecorder rec;
  client::CprClient::Options co;
  co.port = port;
  co.ack_mode = net::AckMode::kDurable;
  co.recv_timeout_ms = 20'000;
  co.recorder = &rec;
  client::CprClient c(co);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  certify::StateDump baseline;
  ASSERT_TRUE(c.DumpState(&baseline).ok());

  {

    // Baseline: a batch of multi-key transactions made durable before any
    // fault. These must survive the crash verbatim.
    const int baseline = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < baseline; ++i) {
      c.EnqueueTxn({add_op(0, 1), add_op(1, 1)});
    }
    c.EnqueueCheckpoint();
    ASSERT_TRUE(c.Flush().ok());
    std::vector<client::CprClient::Result> results;
    ASSERT_TRUE(c.Drain(&results).ok());
    ASSERT_EQ(results.size(), static_cast<size_t>(baseline + 1));
    for (const auto& r : results) ASSERT_EQ(r.status, net::WireStatus::kOk);
    adds_issued = baseline;
    durable_acked = static_cast<uint64_t>(baseline);

    // Optionally a NO-WAIT conflict: consumes one serial with zero effects;
    // the acknowledged conflict neutralizes the replay entry, so the +100
    // must never appear — before or after the crash.
    if ((rng() & 1) != 0) {
      ASSERT_TRUE(backend->db().table(0).header(5).latch.TryLock());
      c.EnqueueTxn({add_op(5, 100)});
      ASSERT_TRUE(c.Flush().ok());
      results.clear();
      ASSERT_TRUE(c.Drain(&results).ok());
      ASSERT_EQ(results[0].status, net::WireStatus::kTxnConflict);
      backend->db().table(0).header(5).latch.Unlock();
    }

    guard.inj.CrashAfter(1 + rng() % 40);
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) {
      const int batch = 1 + static_cast<int>(rng() % 6);
      for (int i = 0; i < batch; ++i) {
        c.EnqueueTxn({add_op(0, 1), add_op(1, 1)});
      }
      adds_issued += batch;
      const bool checkpoint = (rng() & 1) != 0;
      if (checkpoint) c.EnqueueCheckpoint();
      ASSERT_TRUE(c.Flush().ok());
      if (checkpoint) {
        // The round must conclude: kOk acks if the checkpoint beat the
        // crash point, NOT_DURABLE + ERROR degradation if it didn't.
        results.clear();
        ASSERT_TRUE(c.Drain(&results).ok()) << "degraded drain must not hang";
        for (const auto& res : results) {
          if (res.op == net::Op::kTxn && res.status == net::WireStatus::kOk) {
            durable_acked = std::max(durable_acked, res.serial);
          }
        }
      }
    }
  }
  server->Stop();
  server.reset();
  backend.reset();
  guard.inj.Reset();

  // Recover and serve again on the same port; the client replays its
  // unacknowledged suffix under durable acks.
  backend = std::make_unique<txdb::TxDbBackend>(backend_opts());
  ASSERT_TRUE(backend->Recover().ok());
  so.port = port;
  server = std::make_unique<server::KvServer>(backend.get(), so);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_GE(c.recovered_serial(), durable_acked)
      << "acknowledged-durable transactions lost";
  EXPECT_EQ(c.replay_backlog(), 0u);

  std::vector<std::vector<char>> reads;
  net::TxnWireOp r0, r1, r5;  // default kind is kRead
  r0.row = 0;
  r1.row = 1;
  r5.row = 5;
  ASSERT_TRUE(c.Txn({r0, r1, r5}, &reads).ok());
  ASSERT_EQ(reads.size(), 3u);
  int64_t v0 = 0, v1 = 0, v5 = 0;
  std::memcpy(&v0, reads[0].data(), sizeof(v0));
  std::memcpy(&v1, reads[1].data(), sizeof(v1));
  std::memcpy(&v5, reads[2].data(), sizeof(v5));
  EXPECT_EQ(v0, adds_issued) << "row 0: adds applied " << v0
                             << " times, issued " << adds_issued;
  EXPECT_EQ(v1, adds_issued) << "row 1: adds applied " << v1
                             << " times, issued " << adds_issued;
  EXPECT_EQ(v5, 0) << "conflicted transaction's effect materialized";

  // Certify the full history against the recovered state: committed prefix
  // applied exactly once, the neutralized conflict effect-free, every read
  // justified by some serialization.
  certify::StateDump final_state;
  ASSERT_TRUE(c.DumpState(&final_state).ok());
  const auto violations =
      certify::CheckHistories(baseline, final_state, {rec.history()});
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string out;
    for (const auto& v : violations) {
      out += certify::ViolationCodeName(v.code);
      out += ": ";
      out += v.detail;
      out += "\n";
    }
    return out;
  }();

  c.Close();
  server->Stop();
}

TEST(FaultRecoveryTest, TxnServerRandomizedCrashPoints) {
  const int iters = TxnServerIters();
  for (int i = 0; i < iters; ++i) {
    TxnServerCrashPointIteration(BaseSeed() + 4000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- Live provider switch: randomized crash points ----------------------------

// One iteration: a durable-ack TXN session against a served TxDbBackend that
// starts under a random durability provider. A live switch to a different
// provider is queued over the wire with a crash armed at a random
// persistence op, so the "power loss" can land before the boundary
// checkpoint, inside it, around the manifest publish, or well after
// activation — while transaction traffic keeps racing the switch. Recovery
// (configured with the ORIGINAL --mode, as a restarted operator would) must
// come up on whichever provider durably published its manifest, replay the
// client's unacknowledged suffix exactly once, and pass the certifier.
void SwitchCrashPointIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;

  const durability::ProviderKind kinds[] = {durability::ProviderKind::kCpr,
                                            durability::ProviderKind::kCalc,
                                            durability::ProviderKind::kWal};
  const durability::ProviderKind start = kinds[rng() % 3];
  const durability::ProviderKind target =
      kinds[(static_cast<uint32_t>(start) + 1 + rng() % 2) % 3];
  SCOPED_TRACE(std::string("switch ") + durability::ProviderKindName(start) +
               " -> " + durability::ProviderKindName(target));

  auto backend_opts = [&] {
    txdb::TxDbBackend::Options o;
    o.db.durability_dir = dir;
    o.db.mode = txdb::ProviderKindToMode(start);
    o.db.wal_flush_interval_ms = 2;
    o.tables = {txdb::TxDbBackend::TableSpec{8, 8}};
    return o;
  };
  server::KvServerOptions so;
  so.num_workers = 2;
  so.idle_poll_ms = 1;

  auto add_op = [](uint64_t row, int64_t delta) {
    net::TxnWireOp op;
    op.kind = net::TxnOpKind::kAdd;
    op.row = row;
    op.delta = delta;
    return op;
  };

  int64_t adds_issued = 0;     // committed-or-replayable +1s on rows 0 and 1
  uint64_t durable_acked = 0;  // serial of the last kOk durable ack

  auto backend = std::make_unique<txdb::TxDbBackend>(backend_opts());
  auto server = std::make_unique<server::KvServer>(backend.get(), so);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  certify::HistoryRecorder rec;
  client::CprClient::Options co;
  co.port = port;
  co.ack_mode = net::AckMode::kDurable;
  co.recv_timeout_ms = 20'000;
  co.recorder = &rec;
  client::CprClient c(co);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  certify::StateDump baseline;
  ASSERT_TRUE(c.DumpState(&baseline).ok());

  {
    // Baseline under the starting provider, durable before any fault.
    const int base = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < base; ++i) {
      c.EnqueueTxn({add_op(0, 1), add_op(1, 1)});
    }
    c.EnqueueCheckpoint();
    ASSERT_TRUE(c.Flush().ok());
    std::vector<client::CprClient::Result> results;
    ASSERT_TRUE(c.Drain(&results).ok());
    ASSERT_EQ(results.size(), static_cast<size_t>(base + 1));
    for (const auto& r : results) ASSERT_EQ(r.status, net::WireStatus::kOk);
    adds_issued = base;
    durable_acked = static_cast<uint64_t>(base);

    // Optionally a NO-WAIT conflict before the switch races start: one
    // serial, zero effects, neutralized in the replay buffer.
    if ((rng() & 1) != 0) {
      ASSERT_TRUE(backend->db().table(0).header(5).latch.TryLock());
      c.EnqueueTxn({add_op(5, 100)});
      ASSERT_TRUE(c.Flush().ok());
      results.clear();
      ASSERT_TRUE(c.Drain(&results).ok());
      ASSERT_EQ(results[0].status, net::WireStatus::kTxnConflict);
      backend->db().table(0).header(5).latch.Unlock();
    }

    // Arm the crash, then queue the live switch over the wire. The switch
    // runs on the backend's switch thread; a boundary checkpoint or manifest
    // publish felled by the injector must abort it with the old provider
    // intact — never wedge the server.
    guard.inj.CrashAfter(1 + rng() % 60);
    client::CprClient::ProviderStatus ps;
    const Status queued = c.SwitchProvider(target, &ps);
    EXPECT_TRUE(queued.ok()) << queued.ToString();

    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) {
      const int batch = 1 + static_cast<int>(rng() % 6);
      for (int i = 0; i < batch; ++i) {
        c.EnqueueTxn({add_op(0, 1), add_op(1, 1)});
      }
      adds_issued += batch;
      const bool checkpoint = (rng() & 1) != 0;
      if (checkpoint) c.EnqueueCheckpoint();
      ASSERT_TRUE(c.Flush().ok());
      if (checkpoint) {
        results.clear();
        ASSERT_TRUE(c.Drain(&results).ok()) << "degraded drain must not hang";
        for (const auto& res : results) {
          if (res.op == net::Op::kTxn && res.status == net::WireStatus::kOk) {
            durable_acked = std::max(durable_acked, res.serial);
          }
        }
      }
      // Occasionally poke the sessionless PROVIDER query mid-race; the
      // response must always carry a valid current provider.
      if ((rng() & 1) != 0 && c.ProviderInfo(&ps).ok()) {
        EXPECT_TRUE(ps.kind == start || ps.kind == target);
      }
    }
  }
  server->Stop();
  server.reset();
  backend.reset();
  guard.inj.Reset();

  // Recover with the original --mode flag. The manifest chain decides: the
  // switch either durably published (recover under `target`) or it didn't
  // (recover under `start`); a torn publish falls back.
  backend = std::make_unique<txdb::TxDbBackend>(backend_opts());
  ASSERT_TRUE(backend->Recover().ok());
  const durability::ProviderKind landed = backend->Provider();
  EXPECT_TRUE(landed == start || landed == target)
      << "recovered under " << durability::ProviderKindName(landed);
  so.port = port;
  server = std::make_unique<server::KvServer>(backend.get(), so);
  ASSERT_TRUE(server->Start().ok());
  const Status reconnect = c.Reconnect();
  ASSERT_TRUE(reconnect.ok()) << reconnect.ToString() << " (landed on "
                              << durability::ProviderKindName(landed) << ")";
  EXPECT_EQ(c.guid(), guid);
  EXPECT_GE(c.recovered_serial(), durable_acked)
      << "acknowledged-durable transactions lost";
  EXPECT_EQ(c.replay_backlog(), 0u);

  client::CprClient::ProviderStatus ps;
  ASSERT_TRUE(c.ProviderInfo(&ps).ok());
  EXPECT_EQ(ps.kind, landed);

  std::vector<std::vector<char>> reads;
  net::TxnWireOp r0, r1, r5;  // default kind is kRead
  r0.row = 0;
  r1.row = 1;
  r5.row = 5;
  ASSERT_TRUE(c.Txn({r0, r1, r5}, &reads).ok());
  ASSERT_EQ(reads.size(), 3u);
  int64_t v0 = 0, v1 = 0, v5 = 0;
  std::memcpy(&v0, reads[0].data(), sizeof(v0));
  std::memcpy(&v1, reads[1].data(), sizeof(v1));
  std::memcpy(&v5, reads[2].data(), sizeof(v5));
  EXPECT_EQ(v0, adds_issued) << "row 0: adds applied " << v0 << " times under "
                             << durability::ProviderKindName(landed)
                             << ", issued " << adds_issued;
  EXPECT_EQ(v1, adds_issued) << "row 1: adds applied " << v1 << " times under "
                             << durability::ProviderKindName(landed)
                             << ", issued " << adds_issued;
  EXPECT_EQ(v5, 0) << "conflicted transaction's effect materialized";

  // The certifier must accept the history no matter which provider recovery
  // landed on: the prefix contract is provider-independent.
  certify::StateDump final_state;
  ASSERT_TRUE(c.DumpState(&final_state).ok());
  const auto violations =
      certify::CheckHistories(baseline, final_state, {rec.history()});
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string out;
    for (const auto& v : violations) {
      out += certify::ViolationCodeName(v.code);
      out += ": ";
      out += v.detail;
      out += "\n";
    }
    return out;
  }();

  c.Close();
  server->Stop();
}

TEST(FaultRecoveryTest, SwitchRandomizedCrashPoints) {
  const int iters = SwitchIters();
  for (int i = 0; i < iters; ++i) {
    SwitchCrashPointIteration(BaseSeed() + 6000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- Instant restart: crash points inside recovery itself ---------------------

// One iteration: a durable session seeds a 4-shard store and pins a
// checkpoint; the process "loses power"; a second server starts with
// recover_on_start and serves from its listener while a single worker
// restores shards — sometimes against injected EIO / torn reads on the
// checkpoint blobs or a write freeze inside the recovery window. Traffic
// lands mid-recovery (parked ops, demand prioritization, RECOVERING
// rejections), and a SECOND crash fells the server while that traffic may
// still be parked. The final, clean recovery must then hold the full
// contract: the durable prefix intact, every un-acked mid-recovery mutation
// replayed exactly once, and the whole session history certified against
// the recovered state.
void RecoveryCrashIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  InjectorScope guard;
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kKeys = 12;

  auto sharded_opts = [&] {
    kv::ShardedKv::Options o;
    o.base = KvOpts(dir);
    o.num_shards = kShards;
    o.recovery_workers = 1;  // keep the restore window wide
    return o;
  };
  server::KvServerOptions so;
  so.num_workers = 2;
  so.idle_poll_ms = 1;

  certify::HistoryRecorder rec;
  client::CprClient::Options co;
  co.ack_mode = net::AckMode::kDurable;
  co.recv_timeout_ms = 20'000;
  co.recorder = &rec;

  // Phase 1: a durable baseline under a clean server.
  const int per_key = 1 + static_cast<int>(rng() % 3);
  const uint64_t durable_total = static_cast<uint64_t>(per_key) * kKeys;
  auto kv = std::make_unique<kv::ShardedKv>(sharded_opts());
  auto server = std::make_unique<server::KvServer>(kv.get(), so);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();
  co.port = port;
  client::CprClient c(co);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();
  for (int r = 0; r < per_key; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
  }
  // The covering checkpoint rides in the same batch: durable acks gate on it.
  c.EnqueueCheckpoint();
  ASSERT_TRUE(c.Flush().ok());
  std::vector<client::CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(durable_total) + 1);
  for (const auto& r : results) ASSERT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(c.replay_backlog(), 0u);

  // Crash #1.
  server->Stop();
  server.reset();
  kv.reset();

  // Phase 2: instant restart — the listener is up while recovery runs. A
  // fault-free iteration drives un-acked mutations from the RECORDED
  // session through the parked-op path; a faulted iteration (the recovery
  // reads themselves fail) pokes the degraded server with a throwaway
  // session instead, so walk-back artifacts at this doomed server never
  // contaminate the certified history.
  const bool fault_recovery_reads = (rng() & 1) != 0;
  if (fault_recovery_reads) {
    FaultRule rule;
    rule.any_op = false;
    rule.op = FaultOp::kRead;
    rule.path_substr = "ckpt.";
    rule.nth = 1 + rng() % 6;
    rule.sticky = (rng() & 3) == 0;  // sometimes the blobs are gone for good
    if ((rng() & 1) != 0) {
      rule.action = FaultAction::kTorn;
      rule.torn_bytes = rng() % 64;
    }
    guard.inj.AddRule(rule);
    if ((rng() & 3) == 0) guard.inj.CrashAfter(1 + rng() % 20);
  }
  kv = std::make_unique<kv::ShardedKv>(sharded_opts());
  so.port = port;
  so.recover_on_start = true;
  server = std::make_unique<server::KvServer>(kv.get(), so);
  ASSERT_TRUE(server->Start().ok());

  bool sent_phase2 = false;
  std::unique_ptr<client::CprClient> probe;  // outlives crash #2: stays parked
  if (!fault_recovery_reads) {
    ASSERT_TRUE(c.Reconnect().ok());
    EXPECT_EQ(c.recovered_serial(), durable_total)
        << "mid-recovery HELLO must report the pinned commit point";
    EXPECT_EQ(c.replay_backlog(), 0u);
    if (c.recovered_serial() == durable_total) {
      // Un-acked +1s racing the restore: parked, rejected-RECOVERING, or
      // executed-then-lost at crash #2 — the replay buffer keeps them all.
      for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
      ASSERT_TRUE(c.Flush().ok());
      sent_phase2 = true;
    }
  } else {
    client::CprClient::Options po = co;
    po.recorder = nullptr;
    po.ack_mode = net::AckMode::kExecuted;
    po.recv_timeout_ms = 2'000;
    probe = std::make_unique<client::CprClient>(po);
    if (probe->Connect().ok()) {
      for (uint64_t k = 0; k < kKeys; ++k) probe->EnqueueRead(k);
      (void)probe->Flush();
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 3));

  // Crash #2 — possibly while mid-recovery ops are still parked. The drain
  // must conclude cleanly whatever state each shard's restore reached.
  server->Stop();
  server.reset();
  kv.reset();
  probe.reset();
  guard.inj.Reset();

  // Phase 3: final, clean recovery. Durable prefix intact; the phase-2
  // suffix replays exactly once.
  kv = std::make_unique<kv::ShardedKv>(sharded_opts());
  ASSERT_TRUE(kv->Recover().ok());
  so.recover_on_start = false;
  server = std::make_unique<server::KvServer>(kv.get(), so);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), durable_total)
      << "acknowledged-durable ops lost";
  EXPECT_EQ(c.replay_backlog(), 0u) << "replay did not conclude durably";

  const int64_t want = per_key + (sent_phase2 ? 1 : 0);
  certify::StateDump final_state;
  auto& table = final_state.tables.emplace_back();
  table.value_size = 8;
  table.rows_total = kKeys;
  for (uint64_t k = 0; k < kKeys; ++k) {
    int64_t v = 0;
    bool found = false;
    ASSERT_TRUE(c.Read(k, &v, &found).ok()) << "key " << k;
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, want) << "key " << k << ": mid-recovery op not exactly-once";
    net::DumpRow row;
    row.row = k;
    const char* b = reinterpret_cast<const char*>(&v);
    row.value.assign(b, b + sizeof(v));
    table.rows.push_back(std::move(row));
  }

  // Certify the whole history — three HELLOs, a crash inside recovery, and
  // a replayed suffix — against the quiesced final state. (ShardedKv has no
  // wire DUMP; the dump is synthesized from the reads above, which the
  // checker cross-checks as observations too.)
  certify::StateDump baseline;
  auto& base_table = baseline.tables.emplace_back();
  base_table.value_size = 8;
  base_table.rows_total = kKeys;
  const auto violations =
      certify::CheckHistories(baseline, final_state, {rec.history()});
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string out;
    for (const auto& v : violations) {
      out += certify::ViolationCodeName(v.code);
      out += ": ";
      out += v.detail;
      out += "\n";
    }
    return out;
  }();

  c.Close();
  server->Stop();
}

TEST(FaultRecoveryTest, RecoveryRandomizedCrashPoints) {
  const int iters = RecoveryIters();
  for (int i = 0; i < iters; ++i) {
    RecoveryCrashIteration(BaseSeed() + 5000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- Randomized corruption ----------------------------------------------------

// Builds three txdb generations (row sums 1, 3, 6), corrupts 1-3 random
// checkpoint files at random offsets, and recovers: the result must be a
// valid generation verbatim (value == sum of points ∈ {1,3,6}) or a clean
// corruption/not-found error — never garbage, never a crash.
void CorruptionIteration(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const std::string dir = FreshDir();
  std::mt19937 rng(seed);
  {
    txdb::TransactionalDb db(CprOpts(dir, false));
    const uint32_t t = db.CreateTable(4, 8);
    for (int g = 1; g <= 3; ++g) {
      txdb::ThreadContext* ctx = db.RegisterThread();
      txdb::Transaction txn;
      txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 1});
      for (int i = 0; i < g; ++i) db.Execute(*ctx, txn);
      db.DeregisterThread(ctx);
      ASSERT_TRUE(db.WaitForCommit(db.RequestCommit()).ok());
    }
  }
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("v", 0) == 0) files.push_back(e.path().string());
  }
  ASSERT_FALSE(files.empty());
  const int hits = 1 + static_cast<int>(rng() % 3);
  for (int h = 0; h < hits; ++h) {
    const std::string& victim = files[rng() % files.size()];
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(victim, ec);
    if (ec || size == 0) continue;
    if ((rng() & 3) == 0) {
      std::filesystem::resize_file(victim, rng() % size, ec);
    } else {
      FlipByteAt(victim, rng() % size);
    }
  }

  txdb::TransactionalDb db(CprOpts(dir, false));
  const uint32_t t = db.CreateTable(4, 8);
  std::vector<txdb::CommitPoint> points;
  const Status s = db.Recover(&points);
  if (!s.ok()) {
    EXPECT_TRUE(s.code() == Status::Code::kCorruption ||
                s.code() == Status::Code::kNotFound ||
                s.code() == Status::Code::kIoError)
        << s.message();
    return;
  }
  int64_t sum = 0;
  for (const txdb::CommitPoint& p : points) {
    sum += static_cast<int64_t>(p.serial);
  }
  const int64_t value = Row0(db, t);
  EXPECT_EQ(value, sum) << "recovered state inconsistent with commit points";
  EXPECT_TRUE(value == 1 || value == 3 || value == 6)
      << "recovered value " << value << " matches no written generation";
}

TEST(FaultRecoveryTest, RandomizedCorruptionNeverLoadsCorruptCheckpoint) {
  const int iters = CorruptIters();
  for (int i = 0; i < iters; ++i) {
    CorruptionIteration(BaseSeed() + 2000 + static_cast<uint32_t>(i));
    if (HasFatalFailure()) return;
  }
}

// -- Targeted fault programs ---------------------------------------------------

TEST(FaultRecoveryTest, TransientCheckpointWriteFailureIsRetried) {
  const std::string dir = FreshDir();
  InjectorScope guard;
  FaultRule rule;
  rule.any_op = false;
  rule.op = FaultOp::kWrite;
  rule.path_substr = "v1.data";
  rule.nth = 1;  // first data write fails once; the retry must succeed
  guard.inj.AddRule(rule);
  txdb::TransactionalDb db(CprOpts(dir, false));
  const uint32_t t = db.CreateTable(4, 8);
  txdb::ThreadContext* ctx = db.RegisterThread();
  txdb::Transaction txn;
  txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 1});
  db.Execute(*ctx, txn);
  db.DeregisterThread(ctx);
  EXPECT_TRUE(db.WaitForCommit(db.RequestCommit()).ok());
  EXPECT_GE(guard.inj.faults_fired(), 1u);
}

TEST(FaultRecoveryTest, WalPersistentFlushFailureSurfacesError) {
  const std::string dir = FreshDir();
  txdb::TransactionalDb::Options o;
  o.mode = txdb::DurabilityMode::kWal;
  o.durability_dir = dir;
  txdb::TransactionalDb db(o);
  const uint32_t t = db.CreateTable(4, 8);
  txdb::ThreadContext* ctx = db.RegisterThread();
  txdb::Transaction txn;
  txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kAdd, 0, nullptr, 1});
  db.Execute(*ctx, txn);
  db.DeregisterThread(ctx);
  InjectorScope guard;
  FaultRule rule;
  rule.path_substr = "wal.log";
  rule.sticky = true;  // the log device is gone for good
  guard.inj.AddRule(rule);
  // WaitForCommit must return the flush error, not hang on a group commit
  // that can never succeed.
  const Status s = db.WaitForCommit(db.RequestCommit());
  EXPECT_FALSE(s.ok());
}

// -- Server degradation --------------------------------------------------------

// A durable-ack session on a server whose checkpoint device has failed
// persistently must receive explicit NOT_DURABLE / ERROR responses (and keep
// the ops in its replay buffer) — not hang. Once the device heals, a later
// checkpoint restores durable acknowledgements end to end.
TEST(FaultRecoveryTest, FailingCheckpointDeviceDegradesToNotDurable) {
  const std::string dir = FreshDir();
  kv::ShardedKv::Options ko;
  ko.base = KvOpts(dir);
  ko.num_shards = 1;
  kv::ShardedKv kv(ko);
  server::KvServerOptions so;
  so.num_workers = 2;
  so.idle_poll_ms = 1;
  server::KvServer server(&kv, so);
  ASSERT_TRUE(server.Start().ok());

  InjectorScope guard;
  FaultRule rule;
  rule.path_substr = "ckpt.";  // checkpoint artifacts only; hlog keeps working
  rule.sticky = true;
  guard.inj.AddRule(rule);

  client::CprClient::Options co;
  co.port = server.port();
  co.ack_mode = net::AckMode::kDurable;
  co.recv_timeout_ms = 20'000;
  client::CprClient c(co);
  ASSERT_TRUE(c.Connect().ok());

  const int64_t v = 42;
  std::vector<char> value(c.value_size(), 0);
  std::memcpy(value.data(), &v, sizeof(v));
  c.EnqueueUpsert(7, value.data());
  c.EnqueueCheckpoint();
  ASSERT_TRUE(c.Flush().ok());
  std::vector<client::CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok()) << "degraded server must still respond";
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, net::WireStatus::kNotDurable);
  EXPECT_EQ(results[1].status, net::WireStatus::kError);
  EXPECT_EQ(c.stats().not_durable_acks, 1u);
  EXPECT_EQ(c.replay_backlog(), 1u) << "un-durable op must stay queued for replay";

  // Heal the device: the next checkpoint succeeds and covers the op, so the
  // session is durable again (graceful degradation, graceful recovery).
  guard.inj.Reset();
  uint64_t token = 0;
  uint64_t commit_serial = 0;
  ASSERT_TRUE(c.Checkpoint(&token, &commit_serial).ok());
  EXPECT_GE(commit_serial, 1u);
  EXPECT_EQ(c.replay_backlog(), 0u);

  const auto counters = server.counters();
  EXPECT_GE(counters.checkpoint_failures, 1u);
  EXPECT_GE(counters.not_durable_acks, 1u);
  server.Stop();
}

}  // namespace
}  // namespace cpr
