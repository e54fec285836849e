// Tests for the health watchdog: deterministic escalation (OK -> WARN ->
// STALL and back) via EvaluateOnce with fake checks, the once-per-episode
// on-stall diagnostic dump, the background evaluator thread, and two
// fault-injected end-to-end stalls against a real server — a checkpoint
// frozen mid-phase by delayed completions, and the parked-op queue pinned
// at capacity by a never-ready shard during instant restart.
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "faster/faster.h"
#include "io/fault_injection.h"
#include "obs/watchdog.h"
#include "server/server.h"
#include "shard/sharded_kv.h"

namespace cpr {
namespace {

using client::CprClient;
using faster::FasterKv;
using obs::Health;
using obs::Probe;
using obs::Watchdog;
using obs::WatchdogOptions;
using server::KvServer;
using server::KvServerOptions;

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_wd"); }

FasterKv::Options SmallOptions(const std::string& dir) {
  FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.value_size = 8;
  o.page_bits = 14;
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

KvServerOptions ServerOptions(uint16_t port = 0) {
  KvServerOptions o;
  o.port = port;
  o.num_workers = 2;
  o.idle_poll_ms = 1;
  return o;
}

CprClient::Options ClientOptions(uint16_t port) {
  CprClient::Options o;
  o.port = port;
  o.recv_timeout_ms = 2'000;
  return o;
}

kv::ShardedKv::Options ShardedOptions(const std::string& dir,
                                      uint32_t num_shards = 4) {
  kv::ShardedKv::Options o;
  o.base = SmallOptions(dir);
  o.num_shards = num_shards;
  return o;
}

struct InjectorScope {
  FaultInjector inj;
  InjectorScope() { FaultInjector::Install(&inj); }
  ~InjectorScope() { FaultInjector::Install(nullptr); }
};

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Polls the server's health JSON until `needle` appears (or the deadline
// passes); the last JSON seen lands in *last either way.
bool PollHealthFor(CprClient& c, const std::string& needle, int deadline_ms,
                   std::string* last) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::string json;
    if (c.ServerHealth(&json).ok()) {
      *last = json;
      if (json.find(needle) != std::string::npos) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(WatchdogTest, EscalatesAfterConsecutiveSuspiciousAndResetsOnClean) {
  WatchdogOptions o;
  o.warn_evals = 2;
  o.stall_evals = 4;
  o.dump_path = FreshDir() + "/dump.txt";
  Watchdog wd(o);

  std::atomic<bool> bad{false};
  wd.AddCheck("flappy", [&] {
    Probe p;
    p.suspicious = bad.load();
    p.evidence = 7;
    p.detail = "no progress";
    return p;
  });

  wd.EvaluateOnce();
  EXPECT_EQ(wd.health(), Health::kOk);
  EXPECT_EQ(wd.evaluations(), 1u);

  bad.store(true);
  wd.EvaluateOnce();  // 1 consecutive suspicious: still OK
  EXPECT_EQ(wd.health(), Health::kOk);
  wd.EvaluateOnce();  // 2: WARN
  EXPECT_EQ(wd.health(), Health::kWarn);
  EXPECT_EQ(wd.warn_events(), 1u);
  wd.EvaluateOnce();  // 3: still WARN, no new transition
  EXPECT_EQ(wd.health(), Health::kWarn);
  EXPECT_EQ(wd.warn_events(), 1u);
  wd.EvaluateOnce();  // 4: STALL
  EXPECT_EQ(wd.health(), Health::kStall);
  EXPECT_EQ(wd.stall_events(), 1u);

  const std::string json = wd.RenderHealthJson();
  EXPECT_NE(json.find("\"health\":\"STALL\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"flappy\""), std::string::npos) << json;
  EXPECT_NE(json.find("no progress"), std::string::npos) << json;
  EXPECT_NE(json.find("\"evidence\":7"), std::string::npos) << json;

  // One clean evaluation snaps the check (and overall health) back to OK.
  bad.store(false);
  wd.EvaluateOnce();
  EXPECT_EQ(wd.health(), Health::kOk);

  // A second stall episode escalates from scratch and counts again.
  bad.store(true);
  for (int i = 0; i < 4; ++i) wd.EvaluateOnce();
  EXPECT_EQ(wd.health(), Health::kStall);
  EXPECT_EQ(wd.warn_events(), 2u);
  EXPECT_EQ(wd.stall_events(), 2u);
}

TEST(WatchdogTest, WritesDumpOncePerStallEpisode) {
  const std::string dump = FreshDir() + "/stall_dump.txt";
  WatchdogOptions o;
  o.warn_evals = 1;
  o.stall_evals = 2;
  o.dump_path = dump;
  Watchdog wd(o);

  std::atomic<bool> bad{true};
  wd.AddCheck("frozen", [&] {
    Probe p;
    p.suspicious = bad.load();
    p.detail = "pipeline wedged";
    return p;
  });
  wd.SetDumpExtra([] { return std::string("EXTRA-SENTINEL"); });

  wd.EvaluateOnce();
  EXPECT_FALSE(FileExists(dump));  // WARN does not dump
  wd.EvaluateOnce();
  ASSERT_TRUE(FileExists(dump));  // transition into STALL dumps
  const std::string text = ReadFile(dump);
  EXPECT_NE(text.find("watchdog stall: frozen: pipeline wedged"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("check frozen: STALL"), std::string::npos) << text;
  EXPECT_NE(text.find("--- metrics ---"), std::string::npos) << text;
  EXPECT_NE(text.find("--- extra ---"), std::string::npos) << text;
  EXPECT_NE(text.find("EXTRA-SENTINEL"), std::string::npos) << text;

  // Staying stalled must not rewrite the dump: the episode already has its
  // evidence on disk.
  ASSERT_EQ(std::remove(dump.c_str()), 0);
  wd.EvaluateOnce();
  EXPECT_FALSE(FileExists(dump));
  EXPECT_EQ(wd.stall_events(), 1u);

  // Recover, then stall again: a new episode writes a new dump.
  bad.store(false);
  wd.EvaluateOnce();
  EXPECT_EQ(wd.health(), Health::kOk);
  bad.store(true);
  wd.EvaluateOnce();
  wd.EvaluateOnce();
  EXPECT_EQ(wd.stall_events(), 2u);
  EXPECT_TRUE(FileExists(dump));
}

TEST(WatchdogTest, BackgroundThreadEvaluatesAtInterval) {
  WatchdogOptions o;
  o.interval_ms = 1;
  Watchdog wd(o);
  wd.AddCheck("noop", [] { return Probe(); });

  wd.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wd.evaluations() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wd.Stop();
  EXPECT_GE(wd.evaluations(), 3u);
  EXPECT_EQ(wd.health(), Health::kOk);
}

// The headline acceptance case: a checkpoint whose phase is frozen by
// delayed I/O completions is detected by the watchdog (STALL record on the
// "checkpoint_stuck" check plus a diagnostic dump), and health returns to
// OK once the disk recovers and the round completes.
TEST(WatchdogTest, CheckpointPhaseStallDetectedEndToEnd) {
  const std::string dir = FreshDir();
  const std::string dump = dir + "/watchdog_dump.txt";

  InjectorScope fi;
  kv::ShardedKv kv(ShardedOptions(dir, 1));

  KvServerOptions opts = ServerOptions();
  opts.checkpoint_interval_ms = 20;  // server keeps starting rounds itself
  opts.watchdog_interval_ms = 5;
  opts.watchdog_warn_evals = 2;
  opts.watchdog_stall_evals = 4;
  opts.watchdog_dump_path = dump;
  opts.reqtrace_sample = 4;
  KvServer server(&kv, opts);
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (uint64_t k = 0; k < 16; ++k) {
    const int64_t v = static_cast<int64_t>(k);
    ASSERT_TRUE(c.Upsert(k, &v).ok());
  }

  // Freeze checkpoint progress: every store write completes, but only after
  // a delay that dwarfs the watchdog escalation window (4 evals x 5ms).
  {
    FaultRule slow;
    slow.any_op = true;  // write-side ops: WriteAt/Sync/Create/Rename/Unlink
    slow.path_substr = dir;
    slow.nth = 1;
    slow.sticky = true;
    slow.action = FaultAction::kNone;
    slow.delay_ms = 50;
    fi.inj.AddRule(slow);
  }

  std::string json;
  ASSERT_TRUE(PollHealthFor(
      c, "\"name\":\"checkpoint_stuck\",\"health\":\"STALL\"", 15'000, &json))
      << "last health: " << json;
  EXPECT_NE(json.find("\"health\":\"STALL\""), std::string::npos) << json;
  EXPECT_NE(json.find("checkpoint in flight"), std::string::npos) << json;

  // The escalation wrote the diagnostic dump before the health JSON could
  // report STALL (same evaluation, same lock).
  ASSERT_TRUE(FileExists(dump));
  const std::string text = ReadFile(dump);
  EXPECT_NE(text.find("checkpoint_stuck"), std::string::npos) << text;
  EXPECT_NE(text.find("--- metrics ---"), std::string::npos) << text;
  EXPECT_NE(text.find("reqtrace:"), std::string::npos) << text;

  // Disk recovers: the wedged round completes and the watchdog de-escalates
  // to OK on the next clean evaluation.
  fi.inj.Reset();
  ASSERT_TRUE(PollHealthFor(c, "\"health\":\"OK\"", 15'000, &json))
      << "last health: " << json;

  c.Close();
  server.Stop();
}

// Instant restart with a never-ready shard: slow shard-restore reads keep
// recovery in flight while a parked op pins the (capacity-1) parked queue,
// so "parked_pinned" escalates to STALL; once the disk recovers the parked
// op completes and the drained results are all OK.
TEST(WatchdogTest, ParkedQueuePinnedDetectedEndToEnd) {
  const std::string dir = FreshDir();
  const std::string dump = dir + "/watchdog_dump.txt";
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kKeys = 16;

  // Seed: a round of upserts published by a checkpoint, then crash.
  auto kv1 = std::make_unique<kv::ShardedKv>(ShardedOptions(dir, kShards));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient c(ClientOptions(port));
  ASSERT_TRUE(c.Connect().ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t v = static_cast<int64_t>(k + 1);
    ASSERT_TRUE(c.Upsert(k, &v).ok());
  }
  uint64_t commit = 0;
  ASSERT_TRUE(c.Checkpoint(nullptr, &commit, /*snapshot=*/false,
                           /*include_index=*/true)
                  .ok());
  ASSERT_EQ(commit, kKeys);
  server1->Stop();
  server1.reset();
  kv1.reset();

  // Every shard-data read stalls for 100ms (shard dirs are "<dir>/shard-N",
  // so the top-level manifest read that pins the commit point stays fast and
  // HELLO still installs promptly). One recovery worker serializes the
  // restores, keeping at least one shard cold for a long, wide window.
  InjectorScope fi;
  {
    FaultRule slow;
    slow.any_op = false;
    slow.op = FaultOp::kRead;
    slow.path_substr = "/shard-";
    slow.nth = 1;
    slow.sticky = true;
    slow.action = FaultAction::kNone;
    slow.delay_ms = 100;
    fi.inj.AddRule(slow);
  }

  kv::ShardedKv::Options sopts = ShardedOptions(dir, kShards);
  sopts.recovery_workers = 1;
  kv::ShardedKv kv(sopts);
  KvServerOptions ropts = ServerOptions(port);
  ropts.recover_on_start = true;
  ropts.max_parked_ops = 1;  // a single parked op pins the queue
  ropts.watchdog_interval_ms = 5;
  ropts.watchdog_warn_evals = 2;
  ropts.watchdog_stall_evals = 4;
  ropts.watchdog_dump_path = dump;
  KvServer server(&kv, ropts);
  ASSERT_TRUE(server.Start().ok());

  // Async ops across every shard: the first one that lands on a cold shard
  // parks (filling the queue); the rest wait unread in the connection
  // buffer. No Drain yet — the parked response would block it.
  ASSERT_TRUE(c.Reconnect().ok());
  for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
  ASSERT_TRUE(c.Flush().ok());

  // Health polls ride a second connection: the first one's responses are
  // FIFO behind the parked op, so a STATS there would wedge with it.
  CprClient health(ClientOptions(port));
  ASSERT_TRUE(health.Connect().ok());
  std::string json;
  ASSERT_TRUE(PollHealthFor(
      health, "\"name\":\"parked_pinned\",\"health\":\"STALL\"", 20'000,
      &json))
      << "last health: " << json;
  EXPECT_NE(json.find("pinned at capacity 1"), std::string::npos) << json;
  EXPECT_TRUE(FileExists(dump));

  // Disk recovers; recovery finishes; every queued op completes exactly
  // once and health settles back to OK.
  fi.inj.Reset();
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results, kKeys).ok());
  for (const auto& r : results) EXPECT_EQ(r.status, net::WireStatus::kOk);
  ASSERT_TRUE(kv.WaitForRecovery().ok());
  ASSERT_TRUE(PollHealthFor(health, "\"health\":\"OK\"", 15'000, &json))
      << "last health: " << json;

  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    int64_t v = 0;
    ASSERT_TRUE(c.Read(k, &v, &found).ok());
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, static_cast<int64_t>(k + 2)) << "key " << k;
  }

  health.Close();
  c.Close();
  server.Stop();
}

}  // namespace
}  // namespace cpr
