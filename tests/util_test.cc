#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/hash.h"
#include "util/instrumentation.h"
#include "util/latch.h"
#include "util/random.h"
#include "util/sharded_histogram.h"
#include "util/status.h"

namespace cpr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<Status::Code> codes = {
      Status::Ok().code(),          Status::NotFound().code(),
      Status::Aborted().code(),     Status::IoError().code(),
      Status::Corruption().code(),  Status::InvalidArgument().code(),
      Status::Busy().code(),        Status::OutOfMemory().code(),
  };
  EXPECT_EQ(codes.size(), 8u);
}

TEST(SpinLatchTest, TryLockExcludes) {
  SpinLatch latch;
  EXPECT_TRUE(latch.TryLock());
  EXPECT_TRUE(latch.IsLocked());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(SpinLatchTest, MutualExclusionUnderContention) {
  SpinLatch latch;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        latch.Lock();
        counter += 1;  // data race iff the latch is broken
        latch.Unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(SharedLatchTest, SharedHoldersBlockExclusive) {
  SharedLatch latch;
  EXPECT_TRUE(latch.TryLockShared());
  EXPECT_TRUE(latch.TryLockShared());
  EXPECT_EQ(latch.SharedCount(), 2u);
  EXPECT_FALSE(latch.TryLockExclusive());
  latch.UnlockShared();
  EXPECT_FALSE(latch.TryLockExclusive());
  latch.UnlockShared();
  EXPECT_TRUE(latch.TryLockExclusive());
  EXPECT_TRUE(latch.HasExclusive());
  EXPECT_FALSE(latch.TryLockShared());
  latch.UnlockExclusive();
  EXPECT_TRUE(latch.TryLockShared());
  latch.UnlockShared();
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) counts[rng.Uniform(kBuckets)]++;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

class ZipfianParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianParamTest, InRangeAndSkewMatchesTheta) {
  const double theta = GetParam();
  constexpr uint64_t kN = 1000;
  ZipfianGenerator gen(kN, theta);
  Rng rng(5);
  constexpr int kDraws = 200000;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t k = gen.Next(rng);
    ASSERT_LT(k, kN);
    counts[k]++;
  }
  // Rank-0 frequency should approximate 1/zeta(n, theta).
  double zeta = 0;
  for (uint64_t i = 1; i <= kN; ++i) zeta += 1.0 / std::pow(i, theta);
  const double expected0 = kDraws / zeta;
  EXPECT_NEAR(counts[0], expected0, expected0 * 0.15 + 50);
  // Higher theta concentrates more mass at low ranks.
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  if (theta >= 0.99) {
    EXPECT_GT(top10, kDraws / 4);  // strongly skewed
  } else if (theta <= 0.1) {
    EXPECT_LT(top10, kDraws / 10);  // near-uniform
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfianParamTest,
                         ::testing::Values(0.1, 0.5, 0.9, 0.99));

TEST(ScrambleKeyTest, BijectiveEnoughOverSmallDomain) {
  constexpr uint64_t kN = 10000;
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t k = ScrambleKey(i, kN);
    EXPECT_LT(k, kN);
    seen.insert(k);
  }
  // Multiplicative scrambling is not a bijection mod N, but collisions
  // should be rare (it spreads hot ranks apart, which is all we need).
  EXPECT_GT(seen.size(), kN * 6 / 10);
}

TEST(HashTest, AvalancheOnSingleBitFlips) {
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t a = Hash64(0);
    const uint64_t b = Hash64(uint64_t{1} << bit);
    const int differing = __builtin_popcountll(a ^ b);
    EXPECT_GT(differing, 10) << "bit " << bit;
  }
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash64(12345), Hash64(12345));
  EXPECT_NE(Hash64(12345), Hash64(12346));
}

TEST(HistogramTest, MeanAndCount) {
  HistogramData h;
  h.Add(100);
  h.Add(300);
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(HistogramTest, QuantilesAreOrdered) {
  HistogramData h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GE(h.Quantile(0.99), 512u);  // p99 of 1..1000 is ~990
  EXPECT_EQ(h.Quantile(1.0), 1024u);  // the max sample's bucket, not 2^63
}

TEST(HistogramTest, MergeAccumulates) {
  HistogramData a, b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 15.0);
}

TEST(BreakdownCountersTest, AdditionAggregates) {
  BreakdownCounters a, b;
  a.exec_ns = 5;
  a.committed_txns = 1;
  b.exec_ns = 7;
  b.tail_contention_ns = 3;
  b.aborted_txns = 2;
  a += b;
  EXPECT_EQ(a.exec_ns, 12u);
  EXPECT_EQ(a.tail_contention_ns, 3u);
  EXPECT_EQ(a.committed_txns, 1u);
  EXPECT_EQ(a.aborted_txns, 2u);
}

TEST(ScopedTimerTest, AccumulatesElapsed) {
  uint64_t sink = 0;
  {
    ScopedTimer t(sink);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace cpr
