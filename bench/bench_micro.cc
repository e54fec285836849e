// Google-benchmark microbenchmarks for the building blocks: epoch refresh,
// hash-index probes, HybridLog allocation, FASTER point operations, and
// single-key transactions under each durability engine. These are the
// per-operation costs underlying the paper's throughput numbers.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "epoch/epoch.h"
#include "faster/faster.h"
#include "txdb/db.h"
#include "util/hash.h"
#include "util/random.h"
#include "workloads/ycsb.h"

namespace cpr {
namespace {

using bench::FreshBenchDir;

void BM_EpochRefresh(benchmark::State& state) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(epoch.RefreshSlot(slot));
  }
  epoch.ReleaseSlot(slot);
}
BENCHMARK(BM_EpochRefresh);

void BM_EpochBumpWithAction(benchmark::State& state) {
  EpochFramework epoch;
  const int32_t slot = epoch.AcquireSlot();
  uint64_t sink = 0;
  for (auto _ : state) {
    epoch.BumpEpoch([&sink] { ++sink; });
    epoch.RefreshSlot(slot);
  }
  epoch.ReleaseSlot(slot);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EpochBumpWithAction);

void BM_Hash64(benchmark::State& state) {
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(++k));
  }
}
BENCHMARK(BM_Hash64);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(1'000'000, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_IndexFindOrCreate(benchmark::State& state) {
  faster::HashIndex index(1 << 16);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.FindOrCreateEntry(Hash64(rng.Uniform(100'000))));
  }
}
BENCHMARK(BM_IndexFindOrCreate);

void BM_FasterUpsert(benchmark::State& state) {
  faster::FasterKv::Options o;
  o.dir = FreshBenchDir("micro_upsert");
  o.index_buckets = 1 << 16;
  faster::FasterKv kv(o);
  faster::Session* s = kv.StartSession();
  Rng rng(3);
  int64_t v = 1;
  for (auto _ : state) {
    kv.Upsert(*s, rng.Uniform(100'000), &v);
  }
  kv.StopSession(s);
}
BENCHMARK(BM_FasterUpsert);

void BM_FasterRead(benchmark::State& state) {
  faster::FasterKv::Options o;
  o.dir = FreshBenchDir("micro_read");
  o.index_buckets = 1 << 16;
  faster::FasterKv kv(o);
  faster::Session* s = kv.StartSession();
  int64_t v = 1;
  for (uint64_t k = 0; k < 100'000; ++k) kv.Upsert(*s, k, &v);
  Rng rng(4);
  int64_t out;
  for (auto _ : state) {
    kv.Read(*s, rng.Uniform(100'000), &out);
  }
  kv.StopSession(s);
}
BENCHMARK(BM_FasterRead);

void BM_FasterRmw(benchmark::State& state) {
  faster::FasterKv::Options o;
  o.dir = FreshBenchDir("micro_rmw");
  o.index_buckets = 1 << 16;
  faster::FasterKv kv(o);
  faster::Session* s = kv.StartSession();
  Rng rng(5);
  for (auto _ : state) {
    kv.Rmw(*s, rng.Uniform(100'000), 1);
  }
  kv.StopSession(s);
}
BENCHMARK(BM_FasterRmw);

void BM_TxdbSingleKey(benchmark::State& state) {
  const auto mode = static_cast<txdb::DurabilityMode>(state.range(0));
  txdb::TransactionalDb::Options o;
  o.mode = mode;
  o.durability_dir = FreshBenchDir("micro_txdb");
  txdb::TransactionalDb db(o);
  const uint32_t t = db.CreateTable(100'000, 8);
  txdb::ThreadContext* ctx = db.RegisterThread();
  Rng rng(6);
  int64_t value = 7;
  txdb::Transaction txn;
  txn.ops.push_back(txdb::TxnOp{t, txdb::OpType::kWrite, 0, &value, 0});
  uint64_t n = 0;
  for (auto _ : state) {
    txn.ops[0].row = rng.Uniform(100'000);
    db.Execute(*ctx, txn);
    if (++n % 64 == 0) db.Refresh(*ctx);
  }
  db.DeregisterThread(ctx);
}
BENCHMARK(BM_TxdbSingleKey)
    ->Arg(static_cast<int>(txdb::DurabilityMode::kNone))
    ->Arg(static_cast<int>(txdb::DurabilityMode::kCpr))
    ->Arg(static_cast<int>(txdb::DurabilityMode::kCalc))
    ->Arg(static_cast<int>(txdb::DurabilityMode::kWal));

}  // namespace
}  // namespace cpr

BENCHMARK_MAIN();
