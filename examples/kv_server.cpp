// Standalone CPR KV server: exposes a ShardedKv hash-partitioned over
// --shards=N FasterKv instances (default 1: a single store) with
// coordinated checkpoints — or, with --txdb, a TransactionalDb serving both
// single-key KV ops and multi-key TXN requests — over TCP using the
// length-prefixed wire protocol (src/server/wire.h).
//
//   kv_server --port 7777 --dir /tmp/cpr_kv --workers 4 --checkpoint-ms 500
//   kv_server --port 7777 --dir /tmp/cpr_kv --shards 4 --checkpoint-ms 500
//   kv_server --port 7777 --dir /tmp/cpr_tx --txdb --rows 65536
//
// Clients bind durable CPR sessions (HELLO guid), pipeline operations, and
// can request checkpoints / query their commit point. Restart with
// --recover after a crash: reconnecting clients learn their recovered
// commit point and replay everything after it. A durable ack means a
// manifest covering the op is persisted (<dir>/shard-<i> holds each shard),
// and recovery restores every shard to the newest complete manifest.
//
// --instant replaces the blocking recovery with instant restart: the
// listener is up immediately, shards restore in the background on demand,
// and ops for still-loading shards park briefly or earn the retryable
// RECOVERING status. The stats loop reports time-to-first-op vs total
// recovery time once the restore completes.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "durability/provider.h"
#include "faster/faster.h"
#include "server/server.h"
#include "shard/sharded_kv.h"
#include "txdb/txdb_backend.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--dir PATH] [--workers N] [--shards N]\n"
               "          [--txdb] [--rows N] [--value-size N]\n"
               "          [--checkpoint-ms N] [--stats-ms N] [--recover]\n"
               "  --port N           listen port (default 7777; 0 = ephemeral)\n"
               "  --dir PATH         store/checkpoint directory\n"
               "  --workers N        network worker threads (default 4)\n"
               "  --shards N         hash-partition over N stores with\n"
               "                     coordinated checkpoints (default 1)\n"
               "  --txdb             serve a TransactionalDb: single-key KV\n"
               "                     ops plus multi-key TXN requests\n"
               "  --mode M           txdb durability provider: cpr | calc |\n"
               "                     wal (default cpr; a recovered directory\n"
               "                     overrides this with its own manifest)\n"
               "  --adaptive-ms N    sample the observed read/write mix every\n"
               "                     N ms and switch the provider live when\n"
               "                     the policy recommends it (txdb only;\n"
               "                     default 0: off)\n"
               "  --rows N           txdb table 0 row count (default 65536)\n"
               "  --value-size N     txdb table 0 value bytes (default 8)\n"
               "  --checkpoint-ms N  periodic CPR checkpoint interval\n"
               "                     (default 0: only client-requested)\n"
               "  --stats-ms N       counter report interval (default 5000)\n"
               "  --trace-sample N   record 1-in-N request spans into the\n"
               "                     trace ring (default 0: keep the\n"
               "                     CPR_REQTRACE_SAMPLE / built-in default;\n"
               "                     stage histograms record regardless)\n"
               "  --watchdog-ms N    health watchdog evaluation period\n"
               "                     (default 250; 0 disables)\n"
               "  --watchdog-dump F  on-stall diagnostic dump file (default:\n"
               "                     $CPR_WATCHDOG_DUMP, else none)\n"
               "  --recover          recover from the latest checkpoint\n"
               "  --instant          recover in the background: serve from\n"
               "                     the listener immediately, restore\n"
               "                     shards on demand (implies --recover)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7777;
  std::string dir = "/tmp/cpr_kv_server";
  uint32_t workers = 4;
  uint32_t shards = 1;
  bool txdb = false;
  uint64_t rows = 65'536;
  uint32_t value_size = 8;
  uint32_t checkpoint_ms = 0;
  uint32_t stats_ms = 5000;
  bool recover = false;
  bool instant = false;
  std::string mode = "cpr";
  uint32_t adaptive_ms = 0;
  uint32_t trace_sample = 0;
  uint32_t watchdog_ms = 250;
  std::string watchdog_dump;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--workers") {
      workers = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--shards") {
      shards = static_cast<uint32_t>(std::atoi(next()));
      if (shards == 0) shards = 1;
    } else if (arg == "--txdb") {
      txdb = true;
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(std::strlen("--mode="));
    } else if (arg == "--adaptive-ms") {
      adaptive_ms = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--rows") {
      rows = static_cast<uint64_t>(std::atoll(next()));
      if (rows == 0) rows = 65'536;
    } else if (arg == "--value-size") {
      value_size = static_cast<uint32_t>(std::atoi(next()));
      if (value_size < 8) value_size = 8;
    } else if (arg == "--checkpoint-ms") {
      checkpoint_ms = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--stats-ms") {
      stats_ms = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--trace-sample") {
      trace_sample = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--watchdog-ms") {
      watchdog_ms = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--watchdog-dump") {
      watchdog_dump = next();
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--instant") {
      instant = true;
    } else {
      Usage(argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }

  if (txdb && shards > 1) {
    std::fprintf(stderr, "--txdb and --shards are mutually exclusive\n");
    return 2;
  }
  cpr::durability::ProviderKind provider_kind;
  if (!cpr::durability::ParseProviderKind(mode, &provider_kind)) {
    std::fprintf(stderr, "unknown --mode \"%s\" (cpr|calc|wal)\n",
                 mode.c_str());
    return 2;
  }
  if ((provider_kind != cpr::durability::ProviderKind::kCpr ||
       adaptive_ms != 0) &&
      !txdb) {
    std::fprintf(stderr, "--mode/--adaptive-ms require --txdb\n");
    return 2;
  }
  cpr::faster::FasterKv::Options fo;
  fo.dir = dir;
  std::unique_ptr<cpr::kv::Backend> backend;
  if (txdb) {
    cpr::txdb::TxDbBackend::Options to;
    to.db.durability_dir = dir;
    to.db.mode = cpr::txdb::ProviderKindToMode(provider_kind);
    to.tables = {cpr::txdb::TxDbBackend::TableSpec{rows, value_size}};
    backend = std::make_unique<cpr::txdb::TxDbBackend>(std::move(to));
  } else {
    cpr::kv::ShardedKv::Options so;
    so.base = fo;
    so.num_shards = shards;
    backend = std::make_unique<cpr::kv::ShardedKv>(so);
  }
  if (recover && !instant) {
    const cpr::Status s = backend->Recover();
    if (s.ok()) {
      std::printf("recovered from latest manifest in %s\n", dir.c_str());
    } else if (s.code() == cpr::Status::Code::kNotFound) {
      std::printf("no checkpoint in %s, starting fresh\n", dir.c_str());
    } else {
      std::fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  cpr::server::KvServerOptions so;
  so.port = port;
  so.num_workers = workers;
  so.checkpoint_interval_ms = checkpoint_ms;
  so.recover_on_start = instant;
  so.adaptive_interval_ms = adaptive_ms;
  so.reqtrace_sample = trace_sample;
  so.watchdog_interval_ms = watchdog_ms;
  so.watchdog_dump_path = watchdog_dump;
  cpr::server::KvServer server(backend.get(), so);
  const cpr::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (txdb) {
    std::printf(
        "cpr kv_server listening on %u (%u workers, txdb backend: "
        "%llu rows x %u bytes, multi-key TXN enabled, provider=%s%s%s)\n",
        server.port(), workers, static_cast<unsigned long long>(rows),
        backend->value_size(),
        cpr::durability::ProviderKindName(backend->Provider()),
        adaptive_ms != 0 ? ", adaptive" : "",
        checkpoint_ms != 0 ? ", periodic checkpoints" : "");
  } else {
    std::printf(
        "cpr kv_server listening on %u (%u workers, %u shard%s, "
        "value_size=%u%s)\n",
        server.port(), workers, shards, shards == 1 ? "" : "s",
        backend->value_size(),
        checkpoint_ms != 0 ? ", periodic checkpoints" : "");
  }

  if (instant) {
    std::printf("instant restart: listener up, shards restoring on demand\n");
    std::fflush(stdout);
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  uint64_t last_requests = 0;
  bool recovery_reported = !instant;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        stats_ms == 0 ? 1000 : stats_ms));
    if (const cpr::Status rs = server.recovery_error(); !rs.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", rs.ToString().c_str());
      server.Stop();
      return 1;
    }
    const auto c = server.counters();
    if (!recovery_reported && c.recovery_duration_ns != 0) {
      recovery_reported = true;
      std::printf(
          "recovery complete: time-to-first-op=%.2fms "
          "time-to-full-recovery=%.2fms parked=%llu recovering=%llu\n",
          static_cast<double>(c.time_to_first_op_ns) / 1e6,
          static_cast<double>(c.recovery_duration_ns) / 1e6,
          static_cast<unsigned long long>(c.ops_parked),
          static_cast<unsigned long long>(c.recovering_rejections));
      std::fflush(stdout);
    }
    if (stats_ms == 0 || c.requests == last_requests) continue;
    last_requests = c.requests;
    std::printf(
        "conns=%llu/%llu reqs=%llu resps=%llu pending=%llu held=%llu "
        "ckpts=%llu stalls=%llu proto_errs=%llu in=%.1fMB out=%.1fMB\n",
        static_cast<unsigned long long>(c.connections_active),
        static_cast<unsigned long long>(c.connections_accepted),
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.responses),
        static_cast<unsigned long long>(c.ops_pending),
        static_cast<unsigned long long>(c.durable_held),
        static_cast<unsigned long long>(c.checkpoints),
        static_cast<unsigned long long>(c.checkpoint_stalls),
        static_cast<unsigned long long>(c.protocol_errors),
        static_cast<double>(c.bytes_in) / 1e6,
        static_cast<double>(c.bytes_out) / 1e6);
    std::fflush(stdout);
  }
  std::printf("shutting down\n");
  server.Stop();
  return 0;
}
