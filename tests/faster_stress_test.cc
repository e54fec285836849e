// Concurrency stress for the HybridLog allocator and offset machinery, and
// session-semantics checks (async results, pending bookkeeping).
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "epoch/epoch.h"
#include "faster/faster.h"
#include "faster/hybrid_log.h"
#include "io/io_pool.h"

namespace cpr::faster {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_fstress"); }

// Concurrent allocators must receive disjoint, in-bounds regions even while
// pages roll over, flush, and evict underneath them.
TEST(HlogStressTest, ConcurrentAllocationsAreDisjoint) {
  EpochFramework epoch;
  IoPool io(2);
  HybridLog::Config cfg;
  cfg.page_bits = 12;
  cfg.memory_pages = 8;
  cfg.ro_lag_pages = 2;
  cfg.path = FreshDir() + "/hlog.log";
  RemoveFileIfExists(cfg.path);
  HybridLog log(cfg, &epoch, &io);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  constexpr uint32_t kSize = 48;
  std::vector<std::vector<Address>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int32_t slot = epoch.AcquireSlot();
      for (int i = 0; i < kPerThread; ++i) {
        Address a;
        while ((a = log.Allocate(kSize)) == kInvalidAddress) {
          epoch.RefreshSlot(slot);
        }
        // Stamp the region; a torn stamp later means overlap.
        std::memset(log.Ptr(a), t + 1, kSize);
        got[t].push_back(a);
        if (i % 32 == 0) epoch.RefreshSlot(slot);
      }
      epoch.ReleaseSlot(slot);
    });
  }
  for (auto& th : threads) th.join();

  std::set<Address> all;
  for (int t = 0; t < kThreads; ++t) {
    for (Address a : got[t]) {
      EXPECT_TRUE(all.insert(a).second) << "duplicate address " << a;
      // A record never straddles a page boundary.
      EXPECT_LE((a & (log.page_size() - 1)) + kSize, log.page_size());
      EXPECT_GE(a, log.begin_address());
      EXPECT_LT(a + kSize, log.tail() + 1);
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPerThread);
  // Offset invariants after the dust settles.
  EXPECT_LE(log.head(), log.safe_read_only() + (cfg.ro_lag_pages + 1) *
                                                   log.page_size());
  EXPECT_LE(log.safe_read_only(), log.read_only());
  EXPECT_LE(log.read_only(), log.tail());
}

TEST(SessionSemanticsTest, AsyncResultCarriesKindKeySerial) {
  FasterKv::Options o;
  o.dir = FreshDir();
  o.index_buckets = 1 << 10;
  o.page_bits = 12;
  o.memory_pages = 6;
  o.ro_lag_pages = 2;
  FasterKv kv(o);
  Session* s = kv.StartSession();
  // Push a key to disk.
  const int64_t v = 99;
  kv.Upsert(*s, 12345, &v);
  for (uint64_t k = 0; k < 4000; ++k) {
    const int64_t filler = 0;
    kv.Upsert(*s, 100000 + k, &filler);
  }
  kv.CompletePending(*s, true);  // drain filler ops parked along the way
  int64_t out = 0;
  const uint64_t serial_before = s->serial();
  ASSERT_EQ(kv.Read(*s, 12345, &out), OpStatus::kPending);
  std::vector<AsyncResult> results;
  s->set_async_callback([&](const AsyncResult& r) { results.push_back(r); });
  kv.CompletePending(*s, true);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].kind, OpKind::kRead);
  EXPECT_EQ(results[0].key, 12345u);
  EXPECT_EQ(results[0].serial, serial_before + 1);
  EXPECT_TRUE(results[0].found);
  int64_t async_v;
  std::memcpy(&async_v, results[0].value.data(), sizeof(async_v));
  EXPECT_EQ(async_v, 99);
  EXPECT_EQ(s->pending_count(), 0u);
  kv.StopSession(s);
}

TEST(SessionSemanticsTest, PendingCountTracksParkedOps) {
  FasterKv::Options o;
  o.dir = FreshDir();
  o.index_buckets = 1 << 10;
  o.page_bits = 12;
  o.memory_pages = 6;
  o.ro_lag_pages = 2;
  FasterKv kv(o);
  Session* s = kv.StartSession();
  const int64_t v = 1;
  kv.Upsert(*s, 7, &v);
  for (uint64_t k = 0; k < 4000; ++k) {
    const int64_t filler = 0;
    kv.Upsert(*s, 100000 + k, &filler);
  }
  kv.CompletePending(*s, true);  // drain filler ops parked along the way
  int64_t out = 0;
  ASSERT_EQ(kv.Read(*s, 7, &out), OpStatus::kPending);
  EXPECT_EQ(s->pending_count(), 1u);
  kv.CompletePending(*s, true);
  EXPECT_EQ(s->pending_count(), 0u);
  kv.StopSession(s);
}

TEST(SessionSemanticsTest, MixedKindsCompleteWithCorrectKinds) {
  FasterKv::Options o;
  o.dir = FreshDir();
  o.index_buckets = 1 << 10;
  o.page_bits = 12;
  o.memory_pages = 6;
  o.ro_lag_pages = 2;
  FasterKv kv(o);
  Session* s = kv.StartSession();
  const int64_t v = 5;
  kv.Upsert(*s, 1, &v);
  kv.Rmw(*s, 2, 3);
  for (uint64_t k = 0; k < 4000; ++k) {
    const int64_t filler = 0;
    kv.Upsert(*s, 100000 + k, &filler);
  }
  kv.CompletePending(*s, true);  // drain filler ops parked along the way
  int64_t out = 0;
  std::vector<OpKind> kinds;
  s->set_async_callback([&](const AsyncResult& r) {
    if (r.key == 1 || r.key == 2) kinds.push_back(r.kind);
  });
  if (kv.Read(*s, 1, &out) == OpStatus::kPending) {
  }
  if (kv.Rmw(*s, 2, 4) == OpStatus::kPending) {
  }
  kv.CompletePending(*s, true);
  // Whatever went pending completed with its own kind preserved.
  for (OpKind k : kinds) {
    EXPECT_TRUE(k == OpKind::kRead || k == OpKind::kRmw);
  }
  // Final state correct either way.
  bool found = false;
  int64_t val = 0;
  OpStatus st = kv.Read(*s, 2, &val);
  if (st == OpStatus::kPending) {
    s->set_async_callback([&](const AsyncResult& r) {
      found = r.found;
      if (r.found) std::memcpy(&val, r.value.data(), 8);
    });
    kv.CompletePending(*s, true);
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(val, 7);
  kv.StopSession(s);
}

}  // namespace
}  // namespace cpr::faster
