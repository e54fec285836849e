// Per-layer metrics of the traced run. Each layer is timed from outside,
// through its public functions, either from figures the workload run
// collected (client, server, io, obs) or by probes run here after it on
// stores built with the workload's layout (shard, faster, epoch, txdb) and
// on the workload's own requests (wire). The README maps every metric to
// the end-to-end metric and workload it should move.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>

#include "bench.h"
#include "epoch/epoch.h"
#include "server/wire.h"
#include "txdb/txdb_backend.h"
#include "util/random.h"
#include "workloads/tpcc.h"

namespace cprbench {
namespace {

namespace net = cpr::net;
constexpr uint32_t kProbeTid = 100;
uint64_t next_probe_id = 1;

double PerOp(double total, double n) { return n > 0 ? total / n : 0; }

// Times `body` and records it as one probe span.
template <typename F>
uint64_t Timed(SpanLog* spans, const char* name, F&& body) {
  const uint64_t t0 = NowNs();
  body();
  const uint64_t t1 = NowNs();
  spans->Add({name, kProbeTid, t0, t1, next_probe_id++, 0});
  return t1 - t0;
}

void WireLayer(const std::vector<net::Request>& sample, SpanLog* spans,
               RunResult* out) {
  constexpr int kReps = 50;
  std::vector<char> buf;
  size_t bytes = 0;
  for (const net::Request& r : sample) {
    buf.clear();
    net::EncodeRequest(r, &buf);
    bytes += buf.size();
  }
  const uint64_t enc_ns = Timed(spans, "probe.wire.encode", [&] {
    for (int i = 0; i < kReps; ++i) {
      for (const net::Request& r : sample) {
        buf.clear();
        net::EncodeRequest(r, &buf);
      }
    }
  });
  std::vector<char> frames;
  for (const net::Request& r : sample) net::EncodeRequest(r, &frames);
  uint64_t decoded = 0;
  const uint64_t dec_ns = Timed(spans, "probe.wire.decode", [&] {
    for (int i = 0; i < kReps; ++i) {
      size_t off = 0;
      std::string_view payload;
      size_t consumed = 0;
      net::Request req;
      while (net::TryExtractFrame(frames.data() + off, frames.size() - off,
                                  &payload, &consumed) ==
             net::FrameResult::kFrame) {
        decoded += net::DecodeRequest(payload, &req) ? 1 : 0;
        off += consumed;
      }
    }
  });
  const double n = static_cast<double>(sample.size()) * kReps;
  if (decoded != sample.size() * kReps) out->Fail("wire probe: decode failed");
  out->Metric("wire.encode_ns", PerOp(static_cast<double>(enc_ns), n), "ns");
  out->Metric("wire.decode_ns", PerOp(static_cast<double>(dec_ns), n), "ns");
  out->Metric("wire.bytes_per_op",
              PerOp(static_cast<double>(bytes),
                    static_cast<double>(sample.size())),
              "B");
}

void ServerLayer(const LayerInputs& in, RunResult* out) {
  static const std::pair<const char*, const char*> kStages[] = {
      {"decode", "server.decode_ns"},   {"park", "server.park_ns"},
      {"execute", "server.execute_ns"}, {"durable_gate", "server.durable_gate_ns"},
      {"ack", "server.ack_ns"},         {"write", "server.write_ns"},
  };
  for (const auto& [stage, metric] : kStages) {
    double mean = 0;
    const auto b = in.server_before.stage.find(stage);
    const auto a = in.server_after.stage.find(stage);
    if (a != in.server_after.stage.end() &&
        b != in.server_before.stage.end()) {
      mean = PerOp(static_cast<double>(a->second.second - b->second.second),
                   static_cast<double>(a->second.first - b->second.first));
    }
    out->Metric(metric, mean, "ns");
  }
}

// ShardedKv and FasterKv probes on a fresh store with the workload's layout.
void KvLayers(const LayerInputs& in, const std::string& dir, SpanLog* spans,
              RunResult* out) {
  const KvConfig& cfg = *in.kv;
  const std::vector<uint64_t> ids = ChainFreeKeys(cfg, cfg.keys);
  cpr::kv::ShardedKv kv(KvStoreOptions(cfg, dir));
  cpr::kv::Session* s = kv.StartSession(0);
  for (uint64_t i = 0; i < ids.size(); ++i) {
    const int64_t v = static_cast<int64_t>(i);
    kv.Upsert(*s, ids[i], &v);
  }
  kv.CompletePending(*s, true);

  // shard.op_ns: the workload's op mix through ShardedKv.
  constexpr uint32_t kOps = 200'000;
  cpr::Rng rng(42);
  int64_t value = 0;
  auto pick = [&] { return ids[rng.Uniform(ids.size())]; };
  const uint64_t op_ns = Timed(spans, "probe.shard.op", [&] {
    for (uint32_t i = 0; i < kOps; ++i) {
      const uint32_t r = static_cast<uint32_t>(rng.Uniform(100));
      if (r < cfg.read_pct) {
        kv.Read(*s, pick(), &value);
      } else if (r < cfg.read_pct + cfg.upsert_pct) {
        kv.Upsert(*s, pick(), &value);
      } else {
        kv.Rmw(*s, pick(), 1);
      }
      if ((i & 63) == 63) kv.CompletePending(*s);
    }
    kv.CompletePending(*s, true);
  });
  out->Metric("shard.op_ns", PerOp(static_cast<double>(op_ns), kOps), "ns");

  // shard.round_ms: Checkpoint() -> WaitForCheckpoint(), the session
  // refreshing meanwhile.
  constexpr int kRounds = 3;
  uint64_t phase0[4];
  for (int i = 0; i < 4; ++i) phase0[i] = RegistryCounter(kPhaseCounter[i]);
  std::vector<double> round_ms;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t token = 0;
    const uint64_t ns = Timed(spans, "probe.shard.round", [&] {
      while (!kv.Checkpoint(cpr::faster::CommitVariant::kFoldOver, false,
                            &token)) {
        kv.Refresh(*s);
      }
      while (kv.LastFinishedToken() < token) {
        kv.Refresh(*s);
        kv.CompletePending(*s);
      }
    });
    round_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  out->Metric("shard.round_ms", Median(round_ms), "ms");
  static const char* kPhaseMetric[4] = {
      "faster.ckpt_phase_ms.prepare", "faster.ckpt_phase_ms.in_progress",
      "faster.ckpt_phase_ms.wait_pending", "faster.ckpt_phase_ms.wait_flush"};
  for (int i = 0; i < 4; ++i) {
    // Per engine round: under the workload's own load when it ran rounds
    // in the measured interval, else over the probe rounds.
    const double ns =
        in.engine_rounds > 0
            ? PerOp(in.phase_ns[i], static_cast<double>(in.engine_rounds))
            : PerOp(static_cast<double>(RegistryCounter(kPhaseCounter[i]) -
                                        phase0[i]),
                    static_cast<double>(kRounds) * cfg.shards);
    out->Metric(kPhaseMetric[i], ns / 1e6, "ms");
  }
  kv.StopSession(s);

  // FasterKv itself: one engine session on shard 0, its own keys.
  cpr::faster::FasterKv& f = kv.shard(0);
  std::vector<uint64_t> keys;
  for (uint64_t k : ids) {
    if (kv.ShardOf(k) == 0) keys.push_back(k);
  }
  auto* fs = f.StartSession(0);
  uint64_t pending = 0;
  auto one = [&] { return keys[rng.Uniform(keys.size())]; };
  const uint64_t read_ns = Timed(spans, "probe.faster.read", [&] {
    for (uint32_t i = 0; i < kOps; ++i) {
      if (f.Read(*fs, one(), &value) == cpr::faster::OpStatus::kPending) {
        ++pending;
      }
      if ((i & 63) == 63) f.CompletePending(*fs);
    }
    f.CompletePending(*fs, true);
  });
  const uint64_t upsert_ns = Timed(spans, "probe.faster.upsert", [&] {
    for (uint32_t i = 0; i < kOps; ++i) {
      if (f.Upsert(*fs, one(), &value) == cpr::faster::OpStatus::kPending) {
        ++pending;
      }
      if ((i & 63) == 63) f.CompletePending(*fs);
    }
    f.CompletePending(*fs, true);
  });
  const uint64_t rmw_ns = Timed(spans, "probe.faster.rmw", [&] {
    for (uint32_t i = 0; i < kOps; ++i) {
      if (f.Rmw(*fs, one(), 1) == cpr::faster::OpStatus::kPending) ++pending;
      if ((i & 63) == 63) f.CompletePending(*fs);
    }
    f.CompletePending(*fs, true);
  });
  // faster.async_read_us: issue-to-completion of reads that go to disk.
  constexpr uint32_t kAsync = 200;
  uint32_t async_n = 0;
  uint64_t async_ns = 0;
  for (uint32_t i = 0; i < 20 * kAsync && async_n < kAsync; ++i) {
    const uint64_t t0 = NowNs();
    if (f.Read(*fs, one(), &value) != cpr::faster::OpStatus::kPending) {
      continue;
    }
    f.CompletePending(*fs, true);
    async_ns += NowNs() - t0;
    ++async_n;
  }
  f.StopSession(fs);
  out->Metric("faster.read_ns", PerOp(static_cast<double>(read_ns), kOps),
              "ns");
  out->Metric("faster.upsert_ns", PerOp(static_cast<double>(upsert_ns), kOps),
              "ns");
  out->Metric("faster.rmw_ns", PerOp(static_cast<double>(rmw_ns), kOps), "ns");
  out->Metric("faster.pending_per_kop",
              PerOp(static_cast<double>(pending) * 1000, 3.0 * kOps),
              "1/kop");
  out->Metric("faster.async_read_us",
              PerOp(static_cast<double>(async_ns) / 1e3, async_n), "us");
}

void EpochLayer(uint32_t sessions, SpanLog* spans, RunResult* out) {
  // FasterKv's epoch table size, with the workload's sessions registered.
  cpr::EpochFramework epoch(256);
  std::vector<int32_t> slots;
  for (uint32_t i = 0; i < std::min<uint32_t>(sessions, 255); ++i) {
    slots.push_back(epoch.AcquireSlot());
  }
  constexpr uint32_t kRefreshes = 200'000;
  const uint64_t ns = Timed(spans, "probe.epoch.refresh", [&] {
    for (uint32_t i = 0; i < kRefreshes; ++i) {
      epoch.RefreshSlot(slots[i % slots.size()]);
    }
  });
  for (int32_t s : slots) epoch.ReleaseSlot(s);
  out->Metric("epoch.refresh_ns", PerOp(static_cast<double>(ns), kRefreshes),
              "ns");
  out->Metric("epoch.sessions", sessions, "count");
}

// In-process TPC-C transactions on a fresh txn_tpcc-sized database.
void TxdbLayer(const LayerInputs& in, const std::string& dir, SpanLog* spans,
               RunResult* out) {
  cpr::txdb::TxDbBackend::Options o;
  o.db.durability_dir = dir;
  o.db.max_threads = 16;
  o.tables = {cpr::txdb::TxDbBackend::TableSpec{1 << 10, 8}};
  cpr::txdb::TxDbBackend backend(o);
  cpr::workloads::TpccWorkload tpcc(&backend.db(), TpccMakeUp());
  cpr::txdb::TransactionalDb& db = backend.db();
  cpr::txdb::ThreadContext* ctx = db.RegisterThread();
  cpr::Rng rng(42);
  cpr::txdb::Transaction txn;
  auto run = [&](bool new_order, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      if (new_order) {
        tpcc.MakeNewOrder(rng, &txn);
      } else {
        tpcc.MakePayment(rng, &txn);
      }
      while (db.Execute(*ctx, txn) != cpr::txdb::TxnResult::kCommitted) {
        db.Refresh(*ctx);
      }
      if ((i & 63) == 63) db.Refresh(*ctx);
    }
  };
  constexpr uint32_t kTxns = 20'000;
  run(false, 1000);  // warm
  const uint64_t pay_ns =
      Timed(spans, "probe.txdb.payment", [&] { run(false, kTxns); });
  const uint64_t no_ns =
      Timed(spans, "probe.txdb.neworder", [&] { run(true, kTxns); });
  db.DeregisterThread(ctx);
  out->Metric("txdb.payment_ns", PerOp(static_cast<double>(pay_ns), kTxns),
              "ns");
  out->Metric("txdb.neworder_ns", PerOp(static_cast<double>(no_ns), kTxns),
              "ns");
  out->Metric("txdb.conflicts_per_ktxn",
              PerOp(static_cast<double>(in.txn_conflicts) * 1000,
                    static_cast<double>(in.txn_committed)),
              "1/ktxn");
  double commit_ms = in.round_ms;
  if (!in.round_is_txdb) {
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      uint64_t token = 0;
      const uint64_t ns = Timed(spans, "probe.txdb.commit", [&] {
        if (backend.Checkpoint(cpr::faster::CommitVariant::kFoldOver, false,
                               &token)) {
          backend.WaitForCheckpoint(token);
        }
      });
      ms.push_back(static_cast<double>(ns) / 1e6);
    }
    commit_ms = Median(ms);
  }
  out->Metric("txdb.commit_ms", commit_ms, "ms");
}

}  // namespace

void ReportLayers(const LayerInputs& in, const std::string& dir,
                  SpanLog* spans, RunResult* out) {
  const ClientLayer& c = in.client;
  out->Metric("client.flush_ns",
              PerOp(static_cast<double>(c.flush_ns),
                    static_cast<double>(c.flushes)),
              "ns");
  out->Metric("client.ops_per_frame",
              PerOp(static_cast<double>(c.flushed_ops),
                    static_cast<double>(c.flushes)),
              "count");
  out->Metric("client.drain_wait_us",
              PerOp(static_cast<double>(c.drain_wait_ns) / 1e3,
                    static_cast<double>(c.drain_waits)),
              "us");
  WireLayer(in.sample, spans, out);
  ServerLayer(in, out);
  KvLayers(in, dir + "/kv", spans, out);
  if (!in.round_is_txdb) {
    // The workload's own closing round: a ShardedKv round under load.
    out->Metric("shard.round_ms", in.round_ms, "ms");
  }
  EpochLayer(in.sessions, spans, out);
  out->Metric("io.ckpt_mb", in.ckpt_bytes / 1e6, "MB");
  TxdbLayer(in, dir + "/txdb", spans, out);
  out->Metric("obs.trace_overhead_pct",
              in.ops_untraced > 0
                  ? 100.0 * (1.0 - in.ops_traced / in.ops_untraced)
                  : 0.0,
              "%");
  Log("per-layer probes done");
}

}  // namespace cprbench
