#include "faster/faster.h"

#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

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
