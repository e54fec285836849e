// Network serving-layer benchmark: an in-process KvServer over loopback TCP,
// driven by concurrent pipelining clients. Reports end-to-end operations per
// second (the acceptance bar is >=100k ops/s with 4 workers on localhost)
// plus the server's instrumentation counters, then repeats the run with
// durable-ack clients against periodic CPR checkpoints to show the cost of
// commit-on-ack. Durable clients keep the pipeline full across checkpoint
// epochs (TryDrain) instead of draining synchronously, and the run reports
// the execute->durable latency histogram (p50/p99/max).
//
// The server fronts a ShardedKv over --shards=N (or CPR_BENCH_SHARDS; default
// 1, a single store) FasterKv instances with coordinated checkpoints; with
// more than one shard the report adds per-shard op counts and the
// coordinated-round cadence.
//
// With --crash-restart the benchmark instead measures instant restart:
// preload + checkpoint a multi-shard store, tear it down ("power loss"),
// restart the server with recover_on_start, and drive a client against the
// recovering store. Reports time-to-first-op (first accepted connection to
// first data op answered), time-to-full-recovery (every shard restored), and
// time-to-full-throughput (client-observed window rate back at steady
// state), plus the parked/RECOVERING traffic counts during the window.
//
// Knobs: CPR_BENCH_WORKERS (4), CPR_BENCH_CLIENTS (4), CPR_BENCH_KEYS
// (100000), CPR_BENCH_PIPELINE (64), CPR_BENCH_SECONDS (2),
// CPR_BENCH_SHARDS (1), CPR_BENCH_SCALE, CPR_BENCH_RESTART_PASSES (3).
//
// --stats-json=PATH additionally writes a machine-readable summary of every
// run (throughput, durable-lag percentiles, per-phase checkpoint time) for
// CI trend tracking.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/client.h"
#include "server/server.h"
#include "shard/sharded_kv.h"

namespace cpr::bench {
namespace {

struct NetRunResult {
  double ops_per_sec = 0;
  uint64_t total_ops = 0;
  uint64_t max_inflight = 0;  // peak client pipeline depth
  std::vector<uint64_t> shard_ops;
  uint64_t rounds = 0;  // coordinated rounds completed (sharded only)
  server::ServerCounters::Snapshot counters;
  uint64_t phase_ns[4] = {0, 0, 0, 0};  // per-run checkpoint phase time
  ReqBreakdown req;  // this run's critical-path breakdown
};

NetRunResult RunNet(uint32_t workers, uint32_t clients, uint32_t pipeline,
                    uint64_t keys, double seconds, uint32_t read_pct,
                    bool durable, uint32_t checkpoint_ms, uint32_t shards) {
  faster::FasterKv::Options fo;
  fo.dir = FreshBenchDir("srv");
  fo.index_buckets = 1ull << 16;

  kv::ShardedKv::Options ko;
  ko.base = fo;
  ko.num_shards = shards;
  auto backend = std::make_unique<kv::ShardedKv>(ko);

  server::KvServerOptions so;
  so.num_workers = workers;
  so.idle_poll_ms = 1;
  so.checkpoint_interval_ms = checkpoint_ms;
  uint64_t phase_base[4];
  for (int i = 0; i < 4; ++i) phase_base[i] = PhaseCounterNs(i);
  const ReqBreakdown req_base = ReqBreakdown::Sample();

  server::KvServer server(backend.get(), so);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return {};
  }

  std::atomic<bool> stop{false};
  std::vector<uint64_t> ops(clients, 0);
  std::vector<uint64_t> peaks(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      client::CprClient::Options co;
      co.port = server.port();
      co.ack_mode = durable ? net::AckMode::kDurable : net::AckMode::kExecuted;
      client::CprClient c(co);
      if (!c.Connect().ok()) return;
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (t + 1);
      auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      auto enqueue_one = [&] {
        const uint64_t key = next_rand() % keys;
        if (next_rand() % 100 < read_pct) {
          c.EnqueueRead(key);
        } else {
          c.EnqueueRmw(key, 1);
        }
      };
      std::vector<client::CprClient::Result> results;
      if (durable) {
        // Windowed pipelining: top the window up and consume whatever acks
        // have landed, without ever stalling on a checkpoint epoch. Acks
        // arrive in bursts at each checkpoint; the pipeline stays full in
        // between so execution never starves.
        while (!stop.load(std::memory_order_relaxed)) {
          while (c.inflight() < pipeline) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          size_t processed = 0;
          if (!c.TryDrain(&results, &processed).ok()) break;
          ops[t] += processed;
          if (processed == 0) std::this_thread::yield();
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          for (uint32_t i = 0; i < pipeline; ++i) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          if (!c.Drain(&results).ok()) break;
          ops[t] += results.size();
        }
      }
      peaks[t] = c.stats().max_inflight;
      c.Close();
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  std::this_thread::sleep_until(deadline);
  stop.store(true);
  for (auto& th : threads) th.join();

  NetRunResult r;
  for (uint64_t o : ops) r.total_ops += o;
  for (uint64_t p : peaks) r.max_inflight = std::max(r.max_inflight, p);
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.counters = server.counters();
  for (int i = 0; i < 4; ++i) r.phase_ns[i] = PhaseCounterNs(i) - phase_base[i];
  if (shards > 1) {
    for (uint32_t i = 0; i < backend->num_shards(); ++i) {
      r.shard_ops.push_back(backend->ShardOpCount(i));
    }
    r.rounds = backend->LastCheckpointToken();  // round numbers are 1,2,...
  }
  server.Stop();
  // Sample the stage histograms only after Stop(): every worker has flushed,
  // so the per-stage sums reconcile exactly against the e2e sum.
  r.req = ReqBreakdown::Sample().Since(req_base);
  return r;
}

void PrintResult(const char* label, const NetRunResult& r, double seconds) {
  std::printf("  %-22s %10.1f kops/s  (%llu ops)\n", label,
              r.ops_per_sec / 1e3,
              static_cast<unsigned long long>(r.total_ops));
  const auto& c = r.counters;
  std::printf(
      "    counters: conns=%llu reqs=%llu resps=%llu pending=%llu "
      "held=%llu ckpts=%llu stalls=%llu in=%.1fMB out=%.1fMB\n",
      static_cast<unsigned long long>(c.connections_accepted),
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.responses),
      static_cast<unsigned long long>(c.ops_pending),
      static_cast<unsigned long long>(c.durable_held),
      static_cast<unsigned long long>(c.checkpoints),
      static_cast<unsigned long long>(c.checkpoint_stalls),
      static_cast<double>(c.bytes_in) / 1e6,
      static_cast<double>(c.bytes_out) / 1e6);
  std::printf("    peak pipeline depth: %llu\n",
              static_cast<unsigned long long>(r.max_inflight));
  if (c.durable_lag.max > 0) {
    std::printf(
        "    durable lag: p50=%.2fms p99=%.2fms max=%.2fms  "
        "(peak pipeline depth %llu)\n",
        static_cast<double>(c.durable_lag.Quantile(0.5)) / 1e6,
        static_cast<double>(c.durable_lag.Quantile(0.99)) / 1e6,
        static_cast<double>(c.durable_lag.max) / 1e6,
        static_cast<unsigned long long>(r.max_inflight));
  }
  if (!r.shard_ops.empty()) {
    std::printf("    shards: rounds=%llu (%.1f/s) ops=[",
                static_cast<unsigned long long>(r.rounds),
                static_cast<double>(r.rounds) / seconds);
    for (size_t i = 0; i < r.shard_ops.size(); ++i) {
      std::printf("%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(r.shard_ops[i]));
    }
    std::printf("]\n");
  }
  if (c.checkpoints > 0) {
    std::printf("    ckpt phases:");
    for (int i = 0; i < 4; ++i) {
      std::printf(" %s=%.1fms", kCheckpointPhases[i],
                  static_cast<double>(r.phase_ns[i]) / 1e6);
    }
    std::printf("\n");
  }
  r.req.Print();
  if (r.req.e2e.count > 0) {
    uint64_t stage_sum = 0;
    for (const auto& h : r.req.stage) stage_sum += h.sum;
    std::printf("    stage sum=%.1fms vs e2e sum=%.1fms over %llu traced ops\n",
                static_cast<double>(stage_sum) / 1e6,
                static_cast<double>(r.req.e2e.sum) / 1e6,
                static_cast<unsigned long long>(r.req.e2e.count));
  }
}

void WriteStatsJson(const char* path, uint32_t shards, uint32_t workers,
                    uint32_t clients, uint32_t pipeline, double seconds,
                    const std::vector<std::pair<std::string, NetRunResult>>&
                        runs) {
  JsonWriter j;
  j.Str("bench", "server_kv").U64("shards", shards).U64("workers", workers);
  j.U64("clients", clients).U64("pipeline", pipeline);
  j.F64("seconds", seconds, 3).BeginArray("runs");
  for (const auto& [label, r] : runs) {
    const auto& c = r.counters;
    j.BeginObject(nullptr).Str("label", label);
    j.F64("ops_per_sec", r.ops_per_sec, 1).U64("total_ops", r.total_ops);
    j.U64("checkpoints", c.checkpoints);
    j.U64("checkpoint_failures", c.checkpoint_failures);
    j.U64("not_durable_acks", c.not_durable_acks);
    j.U64("not_durable_engine", c.not_durable_engine);
    j.U64("not_durable_degraded", c.not_durable_degraded);
    j.U64("shard_rounds", r.rounds);
    j.Hist("durable_lag_ns", c.durable_lag, /*lag=*/true);
    j.BeginObject("checkpoint_phase_ns");
    for (int p = 0; p < 4; ++p) j.U64(kCheckpointPhases[p], r.phase_ns[p]);
    j.End();
    r.req.WriteJson(j);
    j.End();
  }
  j.WriteFile(path);
}

// -- Crash-restart: instant-restart availability ------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RunCrashRestart(uint32_t shards, const char* stats_json) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const uint64_t keys =
      static_cast<uint64_t>(EnvU64("CPR_BENCH_KEYS", 100'000) * scale);
  const int passes =
      static_cast<int>(EnvU64("CPR_BENCH_RESTART_PASSES", 3));
  const uint32_t workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 4));
  const uint32_t restore_workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_RESTART_WORKERS", 1));
  if (shards < 2) shards = 32;  // instant restart is about multi-shard restore

  kv::ShardedKv::Options so;
  so.base.dir = FreshBenchDir("restart");
  // Per-shard index sized for keys/shards live keys: restore time is then
  // dominated by log replay (the real data), not fixed index-blob I/O.
  so.base.index_buckets = 1ull << 12;
  so.num_shards = shards;
  // Restore bandwidth deliberately below the shard count: full recovery
  // takes shards/restore_workers rounds while a parked op waits only for
  // its own (demand-prioritized) shard.
  so.recovery_workers = restore_workers;

  PrintHeader("Crash-restart",
              std::to_string(shards) + "-shard store, " +
                  std::to_string(keys) + " keys x " + std::to_string(passes) +
                  " passes preloaded, recovery_workers=" +
                  std::to_string(restore_workers));

  // Preload and pin a checkpoint, then "lose power".
  {
    kv::ShardedKv kv(so);
    kv::Session* s = kv.StartSession(1);
    for (int p = 0; p < passes; ++p) {
      for (uint64_t k = 0; k < keys; ++k) {
        if (kv.Rmw(*s, k, 1) == faster::OpStatus::kPending) {
          kv.CompletePending(*s, true);
        }
        if ((k & 0xfff) == 0) kv.Refresh(*s);
      }
    }
    kv.CompletePending(*s, true);
    uint64_t round = 0;
    if (!kv.Checkpoint(faster::CommitVariant::kFoldOver,
                       /*include_index=*/true, &round)) {
      std::fprintf(stderr, "preload checkpoint failed\n");
      return;
    }
    while (kv.CheckpointInProgress()) {
      kv.CompletePending(*s);
      kv.Refresh(*s);
    }
    if (!kv.WaitForCheckpoint(round).ok()) {
      std::fprintf(stderr, "preload checkpoint did not commit\n");
      return;
    }
    kv.StopSession(s);
  }

  // Restart: the listener comes up immediately; shards restore behind it.
  kv::ShardedKv kv(so);
  server::KvServerOptions svo;
  svo.num_workers = workers;
  svo.idle_poll_ms = 1;
  svo.recover_on_start = true;
  server::KvServer server(&kv, svo);
  const uint64_t t0 = NowNs();
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server restart failed\n");
    return;
  }

  // One client hammers the recovering store with sync RMWs (the sync helpers
  // absorb parked waits and RECOVERING retries); per-window op counts give
  // the client-observed throughput ramp.
  constexpr uint64_t kWindowNs = 5'000'000;  // 5ms
  std::vector<uint64_t> window_ops;
  uint64_t client_first_op_ns = 0;
  uint64_t ops_total = 0;
  {
    client::CprClient::Options co;
    co.port = server.port();
    co.ack_mode = net::AckMode::kExecuted;
    client::CprClient c(co);
    if (!c.Connect().ok()) {
      std::fprintf(stderr, "client connect failed\n");
      return;
    }
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next_rand = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    // Run until well past full recovery so the steady-state rate is visible.
    while (kv.Recovering() || NowNs() - t0 < kWindowNs * 40) {
      if (!c.Rmw(next_rand() % keys, 1).ok()) break;
      const uint64_t now = NowNs();
      if (client_first_op_ns == 0) client_first_op_ns = now - t0;
      const size_t w = static_cast<size_t>((now - t0) / kWindowNs);
      if (window_ops.size() <= w) window_ops.resize(w + 1, 0);
      ++window_ops[w];
      ++ops_total;
    }
    c.Close();
  }

  const auto counters = server.counters();
  const uint64_t ttfo = counters.time_to_first_op_ns;
  const uint64_t ttfr = counters.recovery_duration_ns;
  // Steady state: the top window rate after recovery; full throughput is
  // reached at the end of the first window hitting 80% of it.
  uint64_t steady = 0;
  for (uint64_t w : window_ops) steady = std::max(steady, w);
  uint64_t ttft = 0;
  for (size_t w = 0; w < window_ops.size(); ++w) {
    if (window_ops[w] * 10 >= steady * 8) {
      ttft = (w + 1) * kWindowNs;
      break;
    }
  }

  std::printf("  time-to-first-op:        %8.2f ms  (client-observed %.2f ms)\n",
              static_cast<double>(ttfo) / 1e6,
              static_cast<double>(client_first_op_ns) / 1e6);
  std::printf("  time-to-full-recovery:   %8.2f ms\n",
              static_cast<double>(ttfr) / 1e6);
  std::printf("  time-to-full-throughput: %8.2f ms  (steady %.1f kops/s)\n",
              static_cast<double>(ttft) / 1e6,
              static_cast<double>(steady) * (1e9 / kWindowNs) / 1e3);
  if (ttfo > 0 && ttfr > 0) {
    std::printf("  availability ratio:      %8.1fx  (full-recovery / first-op%s\n",
                static_cast<double>(ttfr) / static_cast<double>(ttfo),
                static_cast<double>(ttfr) >= 5.0 * static_cast<double>(ttfo)
                    ? "; >=5x bar met)"
                    : "; WARNING below the 5x bar)");
  }
  std::printf("  traffic: ops=%llu parked=%llu recovering_rejections=%llu\n",
              static_cast<unsigned long long>(ops_total),
              static_cast<unsigned long long>(counters.ops_parked),
              static_cast<unsigned long long>(counters.recovering_rejections));

  if (stats_json != nullptr) {
    JsonWriter j;
    j.Str("bench", "server_kv_crash_restart").U64("shards", shards);
    j.U64("keys", keys).U64("passes", static_cast<uint64_t>(passes));
    j.U64("time_to_first_op_ns", ttfo);
    j.U64("time_to_first_op_client_ns", client_first_op_ns);
    j.U64("time_to_full_recovery_ns", ttfr);
    j.U64("time_to_full_throughput_ns", ttft);
    j.U64("steady_window_ops", steady).U64("ops_total", ops_total);
    j.U64("ops_parked", counters.ops_parked);
    j.U64("recovering_rejections", counters.recovering_rejections);
    j.WriteFile(stats_json);
  }
  server.Stop();
}

void Run(uint32_t shards, const char* stats_json) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const double seconds = EnvF64("CPR_BENCH_SECONDS", 2.0) * scale;
  const uint64_t keys = EnvU64("CPR_BENCH_KEYS", 100'000);
  const uint32_t workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 4));
  const uint32_t clients =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_CLIENTS", 4));
  const uint32_t pipeline =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_PIPELINE", 64));

  std::string backend_desc =
      shards > 1 ? std::to_string(shards) + "-shard coordinated store"
                 : std::string("single store");
  PrintHeader("Server",
              "KV over loopback TCP, " + backend_desc + ", " +
                  std::to_string(workers) + " workers, " +
                  std::to_string(clients) + " pipelining clients (depth " +
                  std::to_string(pipeline) + ")");
  std::vector<std::pair<std::string, NetRunResult>> labeled;
  {
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/50, /*durable=*/false,
                                  /*checkpoint_ms=*/0, shards);
    PrintResult("50:50 executed-ack", r, seconds);
    if (r.ops_per_sec < 100'000) {
      std::printf("    WARNING: below the 100 kops/s acceptance bar\n");
    }
    labeled.emplace_back("50:50 executed-ack", r);
  }
  {
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/0, /*durable=*/false,
                                  /*checkpoint_ms=*/0, shards);
    PrintResult("0:100 executed-ack", r, seconds);
    labeled.emplace_back("0:100 executed-ack", r);
  }
  {
    // Durable acks: responses only flow when a periodic checkpoint covers
    // them. Windowed pipelining keeps execution running across checkpoint
    // epochs; the durable-lag histogram shows what commit-on-ack costs per
    // operation.
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/0, /*durable=*/true,
                                  /*checkpoint_ms=*/100, shards);
    PrintResult("0:100 durable-ack", r, seconds);
    labeled.emplace_back("0:100 durable-ack", r);
  }
  if (stats_json != nullptr) {
    WriteStatsJson(stats_json, shards, workers, clients, pipeline, seconds,
                   labeled);
  }
}

}  // namespace
}  // namespace cpr::bench

int main(int argc, char** argv) {
  uint32_t shards =
      static_cast<uint32_t>(cpr::bench::EnvU64("CPR_BENCH_SHARDS", 1));
  const char* stats_json = nullptr;
  bool crash_restart = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const long v = std::atol(argv[i] + 9);
      if (v >= 1) shards = static_cast<uint32_t>(v);
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--crash-restart") == 0) {
      crash_restart = true;
    }
  }
  if (crash_restart) {
    cpr::bench::RunCrashRestart(shards, stats_json);
  } else {
    cpr::bench::Run(shards, stats_json);
  }
  return 0;
}
