#include "faster/faster.h"

#include <gtest/gtest.h>

#include "test_deadline.h"
#include "test_dirs.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/fault_injection.h"
#include "util/hash.h"

namespace cpr::faster {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_fkv"); }

FasterKv::Options SmallOptions(const std::string& dir) {
  FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.value_size = 8;
  o.page_bits = 14;  // 16 KiB pages
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

int64_t V(const void* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

TEST(FasterKvTest, ReadMissingKeyNotFound) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  int64_t out = 0;
  EXPECT_EQ(kv.Read(*s, 42, &out), OpStatus::kNotFound);
  kv.StopSession(s);
}

TEST(FasterKvTest, UpsertThenRead) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  const int64_t v = 1234;
  EXPECT_EQ(kv.Upsert(*s, 7, &v), OpStatus::kOk);
  int64_t out = 0;
  EXPECT_EQ(kv.Read(*s, 7, &out), OpStatus::kOk);
  EXPECT_EQ(out, 1234);
  kv.StopSession(s);
}

TEST(FasterKvTest, UpsertOverwrites) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  int64_t v = 1;
  kv.Upsert(*s, 7, &v);
  v = 2;
  kv.Upsert(*s, 7, &v);
  int64_t out = 0;
  EXPECT_EQ(kv.Read(*s, 7, &out), OpStatus::kOk);
  EXPECT_EQ(out, 2);
  kv.StopSession(s);
}

TEST(FasterKvTest, RmwCreatesAndAccumulates) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  EXPECT_EQ(kv.Rmw(*s, 9, 5), OpStatus::kOk);   // insert: 0 + 5
  EXPECT_EQ(kv.Rmw(*s, 9, 10), OpStatus::kOk);  // in-place: 15
  EXPECT_EQ(kv.Rmw(*s, 9, -3), OpStatus::kOk);  // 12
  int64_t out = 0;
  EXPECT_EQ(kv.Read(*s, 9, &out), OpStatus::kOk);
  EXPECT_EQ(out, 12);
  kv.StopSession(s);
}

TEST(FasterKvTest, DeleteHidesKey) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  const int64_t v = 5;
  kv.Upsert(*s, 3, &v);
  EXPECT_EQ(kv.Delete(*s, 3), OpStatus::kOk);
  int64_t out = 0;
  EXPECT_EQ(kv.Read(*s, 3, &out), OpStatus::kNotFound);
  // Deleting a never-inserted key reports NotFound.
  EXPECT_EQ(kv.Delete(*s, 999), OpStatus::kNotFound);
  // Re-inserting resurrects it.
  kv.Upsert(*s, 3, &v);
  EXPECT_EQ(kv.Read(*s, 3, &out), OpStatus::kOk);
  EXPECT_EQ(out, 5);
  kv.StopSession(s);
}

TEST(FasterKvTest, ManyKeysAllReadable) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t v = static_cast<int64_t>(k * 2 + 1);
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk) << k;
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    int64_t out = 0;
    OpStatus st = kv.Read(*s, k, &out);
    if (st == OpStatus::kPending) {
      // The key migrated to disk (small memory budget): complete it.
      std::atomic<bool> got{false};
      int64_t async_val = 0;
      s->set_async_callback([&](const AsyncResult& r) {
        if (r.kind == OpKind::kRead && r.key == k && r.found) {
          async_val = V(r.value.data());
          got = true;
        }
      });
      kv.CompletePending(*s, /*wait_for_all=*/true);
      ASSERT_TRUE(got.load()) << k;
      out = async_val;
      s->set_async_callback(nullptr);
    } else {
      ASSERT_EQ(st, OpStatus::kOk) << k;
    }
    EXPECT_EQ(out, static_cast<int64_t>(k * 2 + 1)) << k;
  }
  kv.StopSession(s);
}

TEST(FasterKvTest, LargerThanMemoryReadsGoPendingAndComplete) {
  FasterKv::Options o = SmallOptions(FreshDir());
  o.page_bits = 12;   // 4 KiB pages
  o.memory_pages = 6;  // 24 KiB in memory
  FasterKv kv(o);
  Session* s = kv.StartSession();
  constexpr uint64_t kKeys = 4000;  // 4000 * 24B records >> memory
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t v = static_cast<int64_t>(k + 100);
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
  }
  // Early keys must now live on disk.
  int64_t out = 0;
  const OpStatus st = kv.Read(*s, 0, &out);
  ASSERT_EQ(st, OpStatus::kPending);
  int64_t async_val = -1;
  s->set_async_callback([&](const AsyncResult& r) {
    if (r.found) async_val = V(r.value.data());
  });
  kv.CompletePending(*s, /*wait_for_all=*/true);
  EXPECT_EQ(async_val, 100);
  kv.StopSession(s);
}

TEST(FasterKvTest, RmwOnDiskResidentKey) {
  FasterKv::Options o = SmallOptions(FreshDir());
  o.page_bits = 12;
  o.memory_pages = 6;
  FasterKv kv(o);
  Session* s = kv.StartSession();
  ASSERT_EQ(kv.Rmw(*s, 1, 7), OpStatus::kOk);
  // Push key 1 to disk with filler traffic.
  for (uint64_t k = 1000; k < 5000; ++k) {
    const int64_t v = 0;
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
  }
  const OpStatus st = kv.Rmw(*s, 1, 3);
  if (st == OpStatus::kPending) {
    kv.CompletePending(*s, /*wait_for_all=*/true);
  } else {
    ASSERT_EQ(st, OpStatus::kOk);
  }
  int64_t out = 0;
  OpStatus rst = kv.Read(*s, 1, &out);
  if (rst == OpStatus::kPending) {
    s->set_async_callback([&](const AsyncResult& r) {
      if (r.found) out = V(r.value.data());
    });
    kv.CompletePending(*s, true);
  }
  EXPECT_EQ(out, 10);
  kv.StopSession(s);
}

// Two keys sharing a bucket and tag share one index entry and one record
// chain. With both records on disk, reaching the older key takes two disk
// hops: the newer key's record (a key mismatch), then the older one. The
// retry after the second read must continue from that deeper record, not
// re-read the first hop.
TEST(FasterKvTest, TwoHopDiskChainCompletes) {
  FasterKv::Options o = SmallOptions(FreshDir());
  o.page_bits = 12;
  o.memory_pages = 6;
  FasterKv kv(o);
  const uint64_t mask = o.index_buckets - 1;
  auto entry_of = [mask](uint64_t key) {
    const uint64_t h = Hash64(key);
    return std::make_pair(h & mask, (h >> 48) & ((uint64_t{1} << 14) - 1));
  };
  constexpr uint64_t kOlder = 1;
  uint64_t newer = kOlder + 1;
  while (entry_of(newer) != entry_of(kOlder)) ++newer;

  Session* s = kv.StartSession();
  int64_t v = 11;
  ASSERT_EQ(kv.Upsert(*s, kOlder, &v), OpStatus::kOk);
  v = 22;
  ASSERT_EQ(kv.Upsert(*s, newer, &v), OpStatus::kOk);
  // Push both records to disk with filler traffic on other entries.
  for (uint64_t k = 1000; k < 5000; ++k) {
    if (entry_of(k) == entry_of(kOlder)) continue;
    v = 0;
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
  }

  int64_t read_value = -1;
  s->set_async_callback([&](const AsyncResult& r) {
    if (r.kind == OpKind::kRead && r.found) read_value = V(r.value.data());
  });
  // Bounded completion: a livelocked chain walk must fail the test, not
  // hang it.
  auto complete = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (s->pending_count() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      kv.CompletePending(*s);
    }
    return s->pending_count() == 0;
  };
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, kOlder, &out), OpStatus::kPending);
  ASSERT_TRUE(complete()) << "read of the older key never completed";
  EXPECT_EQ(read_value, 11);

  OpStatus st = kv.Rmw(*s, kOlder, 5);
  if (st == OpStatus::kPending) {
    ASSERT_TRUE(complete()) << "RMW of the older key never completed";
  } else {
    ASSERT_EQ(st, OpStatus::kOk);
  }
  read_value = -1;
  st = kv.Read(*s, kOlder, &out);
  if (st == OpStatus::kPending) {
    ASSERT_TRUE(complete());
    out = read_value;
  }
  EXPECT_EQ(out, 16);
  read_value = -1;
  st = kv.Read(*s, newer, &out);
  if (st == OpStatus::kPending) {
    ASSERT_TRUE(complete());
    out = read_value;
  }
  EXPECT_EQ(out, 22);
  kv.StopSession(s);
}

// Regression: two sessions driven by one thread append past the in-memory
// log. A page rollover then waits until the other session's epoch moves,
// which only this thread can do; the op must park (kPending) rather than
// spin, and complete once the loop has refreshed the other session.
TEST(FasterKvTest, AllocStallWithTwoSessionsOnOneThreadCompletes) {
  cpr::testing::AbortAfter deadline(
      std::chrono::seconds(60), "an append stalled on a rollover never returned");
  FasterKv::Options o = SmallOptions(FreshDir());
  o.index_buckets = 1 << 16;
  o.page_bits = 16;  // 8 x 64 KiB in memory
  o.memory_pages = 8;
  FasterKv kv(o);
  Session* sessions[2] = {kv.StartSession(), kv.StartSession()};
  constexpr uint64_t kKeys = 100'000;  // ~4x the in-memory log
  size_t parked = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    Session& s = *sessions[k & 1];
    const int64_t v = static_cast<int64_t>(k);
    const OpStatus st = kv.Upsert(s, k, &v);
    ASSERT_NE(st, OpStatus::kNotFound);
    if (st == OpStatus::kPending) ++parked;
    kv.CompletePending(s);
  }
  while (sessions[0]->pending_count() + sessions[1]->pending_count() > 0) {
    for (Session* s : sessions) {
      kv.CompletePending(*s);
      kv.Refresh(*s);
    }
  }
  EXPECT_GT(parked, 0u);

  // The first key is on disk by now, the last one in memory.
  Session& s = *sessions[0];
  int64_t read_value = -1;
  s.set_async_callback([&](const AsyncResult& r) {
    if (r.kind == OpKind::kRead && r.found) read_value = V(r.value.data());
  });
  for (const uint64_t k : {uint64_t{0}, kKeys - 1}) {
    int64_t out = -1;
    const OpStatus st = kv.Read(s, k, &out);
    if (st == OpStatus::kPending) {
      while (s.pending_count() > 0) {
        for (Session* other : sessions) {
          kv.CompletePending(*other);
          kv.Refresh(*other);
        }
      }
      out = read_value;
    } else {
      ASSERT_EQ(st, OpStatus::kOk);
    }
    EXPECT_EQ(out, static_cast<int64_t>(k)) << "key " << k;
  }
  for (Session* other : sessions) kv.StopSession(other);
}

// The other side of the rollover rule: a rollover that waits only for a
// flush already in flight needs no other session, so a lone session's
// appends still complete inline (kOk) while every log write is slow.
TEST(FasterKvTest, RolloverWaitingOnlyForAFlushCompletesInline) {
  struct InjectorScope {
    FaultInjector inj;
    InjectorScope() { FaultInjector::Install(&inj); }
    ~InjectorScope() { FaultInjector::Install(nullptr); }
  } fi;  // outlives the store, whose teardown drains its log writes
  FaultRule slow;
  slow.any_op = false;
  slow.op = FaultOp::kWrite;
  slow.path_substr = "hlog";
  slow.sticky = true;
  slow.action = FaultAction::kNone;
  slow.delay_ms = 20;
  fi.inj.AddRule(slow);

  FasterKv::Options o = SmallOptions(FreshDir());
  o.page_bits = 12;
  o.memory_pages = 6;
  FasterKv kv(o);
  Session* s = kv.StartSession();
  for (uint64_t k = 0; k < 2000; ++k) {  // ~12 rollovers
    const int64_t v = static_cast<int64_t>(k);
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk) << k;
  }
  kv.StopSession(s);
}

// Appends past the in-memory log with two sessions on one thread until one
// of them parks on a rollover; returns that session's index and the key it
// parked on. The rollover then waits on the other session's epoch.
struct Appender {
  explicit Appender(FasterKv& store)
      : kv(store), sessions{store.StartSession(), store.StartSession()} {}

  FasterKv& kv;
  Session* sessions[2];
  uint64_t next_key = 0;
  struct Op {
    int session;
    uint64_t serial;
    uint64_t key;
    int64_t value;
  };
  std::vector<Op> ops;

  OpStatus Upsert(int i, uint64_t key, int64_t value) {
    const OpStatus st = kv.Upsert(*sessions[i], key, &value);
    ops.push_back({i, sessions[i]->serial(), key, value});
    return st;
  }
  // Returns the parked session; its op is on ops.back().key.
  int AppendUntilParked() {
    for (uint64_t n = 0; n < 1'000'000; ++n) {
      const int i = static_cast<int>(n & 1);
      const uint64_t k = next_key++;
      if (Upsert(i, k, static_cast<int64_t>(k) + 1) == OpStatus::kPending) {
        return i;
      }
      kv.CompletePending(*sessions[i]);
    }
    return -1;
  }
};

FasterKv::Options SmallLogOptions(const std::string& dir) {
  FasterKv::Options o = SmallOptions(dir);
  o.index_buckets = 1 << 16;
  o.page_bits = 16;  // 8 x 64 KiB in memory
  o.memory_pages = 8;
  return o;
}

// Regression: an append that stalls in the prepare phase parks holding its
// bucket's shared latch (§6.2.1). The other session then writes the parked
// op's key from in-progress; that write must wait for the latch. Without it
// the (v+1) record leaves the parked version-v op retrying forever, so
// wait-pending and the checkpoint never end. The recovered store must hold
// exactly each session's ops up to its CPR point.
TEST(FasterKvTest, AppendParkedInPrepareHoldsItsLatchThroughTheHandoff) {
  cpr::testing::AbortAfter deadline(
      std::chrono::seconds(60), "a checkpoint never finished its handoff");
  const std::string dir = FreshDir();
  uint64_t guids[2] = {0, 0};
  std::vector<Appender::Op> ops;
  uint64_t parked_key = 0;
  int parker = -1;
  {
    FasterKv kv(SmallLogOptions(dir));
    Appender app(kv);
    for (int i = 0; i < 2; ++i) guids[i] = app.sessions[i]->guid();
    const int first = app.AppendUntilParked();
    ASSERT_GE(first, 0);
    // The rollover still waits on the other session; a checkpoint starts,
    // and the parked session's next append stalls on it in prepare.
    std::atomic<bool> committed{false};
    ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, true,
                              [&](uint64_t, const auto&) {
                                committed.store(true);
                              }));
    parker = first;
    parked_key = app.next_key++;
    ASSERT_EQ(app.Upsert(parker, parked_key, -7), OpStatus::kPending);
    ASSERT_EQ(app.sessions[parker]->phase(), Phase::kPrepare);

    // The other session enters in-progress (version v+1) and writes the
    // parked key: the handoff must wait for the parked op.
    Session& other = *app.sessions[parker ^ 1];
    for (int n = 0; other.phase() != Phase::kInProgress; ++n) {
      ASSERT_LT(n, 1000);
      kv.Refresh(other);
    }
    EXPECT_EQ(app.Upsert(parker ^ 1, parked_key, -9), OpStatus::kPending);
    for (int n = 0; n < 16; ++n) app.Upsert(parker ^ 1, app.next_key++, n);

    while (!committed.load() || app.sessions[0]->pending_count() +
                                        app.sessions[1]->pending_count() >
                                    0) {
      for (Session* s : app.sessions) {
        kv.CompletePending(*s);
        kv.Refresh(*s);
      }
    }
    for (Session* s : app.sessions) kv.StopSession(s);
    ops = std::move(app.ops);
  }

  FasterKv kv(SmallLogOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  uint64_t points[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(kv.ContinueSession(guids[i], &points[i]).ok());
  }
  // The parked op belongs to the commit; the in-progress write does not.
  std::unordered_map<uint64_t, int64_t> expected;
  for (const Appender::Op& op : ops) {
    if (op.key == parked_key) {
      EXPECT_EQ(op.serial <= points[op.session], op.session == parker)
          << "session " << op.session;
    }
    if (op.serial <= points[op.session]) expected[op.key] = op.value;
  }
  ASSERT_EQ(expected[parked_key], -7);
  Session* s = kv.StartSession();
  std::unordered_map<uint64_t, int64_t> async_values;
  s->set_async_callback([&](const AsyncResult& r) {
    if (r.found) async_values[r.key] = V(r.value.data());
  });
  std::vector<uint64_t> keys;
  for (const Appender::Op& op : ops) keys.push_back(op.key);
  std::unordered_map<uint64_t, int64_t> read;
  for (const uint64_t k : keys) {
    int64_t out = 0;
    const OpStatus st = kv.Read(*s, k, &out);
    if (st == OpStatus::kOk) read[k] = out;
  }
  kv.CompletePending(*s, /*wait_for_all=*/true);
  for (const auto& [k, v] : async_values) read[k] = v;
  EXPECT_EQ(read, expected);
  kv.StopSession(s);
}

// A session's later ops on a key never overtake its parked op on that key:
// they park behind it and take effect in serial order. Ops on other keys
// still run inline.
TEST(FasterKvTest, OpsOnAParkedKeyWaitBehindIt) {
  cpr::testing::AbortAfter deadline(std::chrono::seconds(60),
                                    "ops behind a parked op never completed");
  FasterKv kv(SmallLogOptions(FreshDir()));
  Appender app(kv);
  const int i = app.AppendUntilParked();
  ASSERT_GE(i, 0);
  Session& s = *app.sessions[i];
  const uint64_t key = app.ops.back().key;
  const int64_t upserted = app.ops.back().value;
  std::vector<AsyncResult> done;
  s.set_async_callback([&](const AsyncResult& r) { done.push_back(r); });

  ASSERT_EQ(kv.Rmw(s, key, 10), OpStatus::kPending);
  int64_t out = 0;
  ASSERT_EQ(kv.Read(s, key, &out), OpStatus::kPending);
  // The key before it is still in memory and not parked.
  ASSERT_EQ(kv.Read(s, key - 2, &out), OpStatus::kOk);
  EXPECT_EQ(out, static_cast<int64_t>(key - 2) + 1);

  while (s.pending_count() > 0) {
    for (Session* x : app.sessions) {
      kv.CompletePending(*x);
      kv.Refresh(*x);
    }
  }
  ASSERT_EQ(done.size(), 3u);
  for (size_t n = 0; n < done.size(); ++n) {
    EXPECT_EQ(done[n].key, key);
    if (n > 0) {
      EXPECT_GT(done[n].serial, done[n - 1].serial);
    }
  }
  EXPECT_EQ(done[0].kind, OpKind::kUpsert);
  EXPECT_EQ(done[1].kind, OpKind::kRmw);
  ASSERT_EQ(done[2].kind, OpKind::kRead);
  ASSERT_TRUE(done[2].found);
  EXPECT_EQ(V(done[2].value.data()), upserted + 10);
  for (Session* x : app.sessions) kv.StopSession(x);
}

// A stopped session's CPR point is its final serial in every commit after
// the stop. One that stops during a commit's in-progress phase gives that
// commit its point at the version crossing; its later ops belong to the
// next commit. A restart of the guid resumes at the final serial.
TEST(FasterKvTest, StoppedSessionsReportTheirFinalSerial) {
  cpr::testing::AbortAfter deadline(std::chrono::seconds(60),
                                    "a checkpoint never finished");
  const std::string dir = FreshDir();
  uint64_t guid_rest = 0;  // stops at rest after 5 RMWs on key 1
  uint64_t guid_ip = 0;    // 3 RMWs on key 2, 4 more in in-progress, stops
  {
    FasterKv kv(SmallOptions(dir));
    Session* driver = kv.StartSession();
    std::vector<SessionCommitPoint> first_points;
    std::atomic<int> commits{0};
    auto on_commit = [&](uint64_t, const std::vector<SessionCommitPoint>& p) {
      if (commits.load() == 0) first_points = p;
      commits.fetch_add(1);
    };

    Session* a = kv.StartSession();
    guid_rest = a->guid();
    for (int i = 0; i < 5; ++i) ASSERT_EQ(kv.Rmw(*a, 1, 1), OpStatus::kOk);
    kv.StopSession(a);

    Session* b = kv.StartSession();
    guid_ip = b->guid();
    for (int i = 0; i < 3; ++i) ASSERT_EQ(kv.Rmw(*b, 2, 1), OpStatus::kOk);
    const uint32_t v = kv.CurrentVersion();
    ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, true, on_commit));
    for (int n = 0; b->version() != v + 1; ++n) {
      ASSERT_LT(n, 1000);
      kv.Refresh(*driver);
      kv.Refresh(*b);
    }
    for (int i = 0; i < 4; ++i) ASSERT_EQ(kv.Rmw(*b, 2, 1), OpStatus::kOk);
    ASSERT_NE(kv.CurrentPhase(), Phase::kRest);
    kv.StopSession(b);
    while (commits.load() < 1) kv.Refresh(*driver);

    std::map<uint64_t, uint64_t> first;
    for (const SessionCommitPoint& p : first_points) first[p.guid] = p.serial;
    EXPECT_EQ(first[guid_rest], 5u);
    EXPECT_EQ(first[guid_ip], 3u);

    // Every later commit reports the final serials.
    ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, false, on_commit));
    while (commits.load() < 2) kv.Refresh(*driver);
    uint64_t point = 0;
    ASSERT_TRUE(kv.DurableCommitPoint(guid_rest, &point).ok());
    EXPECT_EQ(point, 5u);
    ASSERT_TRUE(kv.DurableCommitPoint(guid_ip, &point).ok());
    EXPECT_EQ(point, 7u);

    // A live restart resumes at the final serial.
    Session* again = kv.StartSession(guid_ip);
    EXPECT_EQ(again->serial(), 7u);
    EXPECT_EQ(again->last_commit_point(), 7u);
    kv.StopSession(again);
    kv.StopSession(driver);
  }

  FasterKv kv(SmallOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  uint64_t point = 0;
  ASSERT_TRUE(kv.ContinueSession(guid_rest, &point).ok());
  EXPECT_EQ(point, 5u);
  ASSERT_TRUE(kv.ContinueSession(guid_ip, &point).ok());
  EXPECT_EQ(point, 7u);
  Session* s = kv.StartSession();
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, 1, &out), OpStatus::kOk);
  EXPECT_EQ(out, 5);
  ASSERT_EQ(kv.Read(*s, 2, &out), OpStatus::kOk);
  EXPECT_EQ(out, 7);
  kv.StopSession(s);
}

TEST(FasterKvTest, SerialNumbersIncreasePerOperation) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  EXPECT_EQ(s->serial(), 0u);
  const int64_t v = 1;
  kv.Upsert(*s, 1, &v);
  kv.Read(*s, 1, const_cast<int64_t*>(&v));
  kv.Rmw(*s, 1, 1);
  EXPECT_EQ(s->serial(), 3u);
  kv.StopSession(s);
}

TEST(FasterKvTest, SessionsHaveDistinctGuids) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* a = kv.StartSession();
  const uint64_t ga = a->guid();
  kv.StopSession(a);
  Session* b = kv.StartSession();
  EXPECT_NE(b->guid(), ga);
  Session* c = kv.StartSession(777);
  EXPECT_EQ(c->guid(), 777u);
  kv.StopSession(c);
  kv.StopSession(b);
}

TEST(FasterKvTest, HashCollisionChainsResolvePerKey) {
  FasterKv::Options o = SmallOptions(FreshDir());
  o.index_buckets = 2;  // extreme collisions: long chains
  FasterKv kv(o);
  Session* s = kv.StartSession();
  for (uint64_t k = 0; k < 300; ++k) {
    const int64_t v = static_cast<int64_t>(1000 + k);
    ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
  }
  for (uint64_t k = 0; k < 300; ++k) {
    int64_t out = 0;
    ASSERT_EQ(kv.Read(*s, k, &out), OpStatus::kOk) << k;
    EXPECT_EQ(out, static_cast<int64_t>(1000 + k));
  }
  kv.StopSession(s);
}

TEST(FasterKvTest, WideValuesRoundTrip) {
  FasterKv::Options o = SmallOptions(FreshDir());
  o.value_size = 100;  // the paper's 100-byte configuration
  FasterKv kv(o);
  Session* s = kv.StartSession();
  std::vector<char> v(100);
  for (int i = 0; i < 100; ++i) v[i] = static_cast<char>(i);
  ASSERT_EQ(kv.Upsert(*s, 5, v.data()), OpStatus::kOk);
  std::vector<char> out(100, 0);
  ASSERT_EQ(kv.Read(*s, 5, out.data()), OpStatus::kOk);
  EXPECT_EQ(std::memcmp(out.data(), v.data(), 100), 0);
  // RMW still sums the first 8 bytes and preserves the rest.
  ASSERT_EQ(kv.Rmw(*s, 5, 10), OpStatus::kOk);
  ASSERT_EQ(kv.Read(*s, 5, out.data()), OpStatus::kOk);
  int64_t head0;
  std::memcpy(&head0, v.data(), 8);
  EXPECT_EQ(V(out.data()), head0 + 10);
  EXPECT_EQ(std::memcmp(out.data() + 8, v.data() + 8, 92), 0);
  kv.StopSession(s);
}

TEST(FasterKvTest, LogGrowsOnlyOnNewRecords) {
  FasterKv kv(SmallOptions(FreshDir()));
  Session* s = kv.StartSession();
  const int64_t v = 1;
  kv.Upsert(*s, 1, &v);
  const uint64_t after_insert = kv.LogBytes();
  // In-place updates in the mutable region do not grow the log.
  for (int i = 0; i < 100; ++i) kv.Rmw(*s, 1, 1);
  EXPECT_EQ(kv.LogBytes(), after_insert);
  kv.StopSession(s);
}

}  // namespace
}  // namespace cpr::faster
