#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>
#include <thread>

#include "bench.h"
#include "io/fault_injection.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "util/hash.h"

namespace cprbench {

namespace fs = std::filesystem;

const char* const kPhaseCounter[4] = {
    "cpr_faster_checkpoint_phase_ns_total{phase=\"prepare\"}",
    "cpr_faster_checkpoint_phase_ns_total{phase=\"in_progress\"}",
    "cpr_faster_checkpoint_phase_ns_total{phase=\"wait_pending\"}",
    "cpr_faster_checkpoint_phase_ns_total{phase=\"wait_flush\"}",
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Log(const char* fmt, ...) {
  static const uint64_t t0 = NowNs();
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  std::fprintf(stderr, "[cprbench %7.3fs %6.1f MB] ",
               static_cast<double>(NowNs() - t0) / 1e9,
               static_cast<double>(pages) * 4096 / 1e6);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// -- LatHist -----------------------------------------------------------------

LatHist::LatHist() : blocks_(kBlocks) {}

std::vector<LatHist::Bucket>& LatHist::Block(size_t b) {
  std::vector<Bucket>& block = blocks_[b];
  if (block.empty()) block.resize(kSub);
  return block;
}

void LatHist::Add(uint64_t ns) {
  uint32_t b = 0, sub = static_cast<uint32_t>(ns);
  if (ns >= kSub) {
    const uint32_t octave = 63 - static_cast<uint32_t>(__builtin_clzll(ns));
    const uint32_t shift = octave - 7;  // kSub == 2^7
    b = shift + 1;
    sub = static_cast<uint32_t>(ns >> shift) - kSub;
  }
  Bucket& bucket = Block(b)[sub];
  ++bucket.count;
  bucket.sum += ns;
  ++n_;
}

void LatHist::Merge(const LatHist& o) {
  for (size_t b = 0; b < kBlocks; ++b) {
    if (o.blocks_[b].empty()) continue;
    std::vector<Bucket>& block = Block(b);
    for (size_t i = 0; i < kSub; ++i) {
      block[i].count += o.blocks_[b][i].count;
      block[i].sum += o.blocks_[b][i].sum;
    }
  }
  n_ += o.n_;
}

double LatHist::Quantile(double q) const {
  if (n_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(n_));
  if (target >= n_) target = n_ - 1;
  uint64_t seen = 0;
  for (const std::vector<Bucket>& block : blocks_) {
    for (const Bucket& bucket : block) {
      seen += bucket.count;
      if (seen > target) {
        return static_cast<double>(bucket.sum) /
               static_cast<double>(bucket.count);
      }
    }
  }
  return 0;
}

// -- Spans -------------------------------------------------------------------

void SpanLog::Merge(const SpanLog& o) {
  for (const Span& s : o.spans_) Add(s);
  dropped_ += o.dropped_;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = ~uint64_t{0};
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"droppedSpans\":%llu,"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 first ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// -- Results -----------------------------------------------------------------

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

SliceStats Summarize(const std::vector<std::vector<Slice>>& per_thread,
                     const Timeline& tl) {
  SliceStats st;
  uint64_t ok = 0, last = tl.start_ns;
  std::vector<double> ops_u, ops_t, p50, p99;
  const double secs = static_cast<double>(tl.slice_ns) / 1e9;
  for (uint32_t i = 0; i < tl.slices; ++i) {
    uint64_t slice_ok = 0;
    LatHist lat;
    for (const auto& t : per_thread) {
      slice_ok += t[i].ok;
      st.failed += t[i].failed;
      last = std::max(last, t[i].last_ns);
      lat.Merge(t[i].lat);
    }
    p50.push_back(lat.Quantile(0.50) / 1e3);
    p99.push_back(lat.Quantile(0.99) / 1e3);
    ok += slice_ok;
    const double rate = static_cast<double>(slice_ok) / secs;
    (tl.Traced(static_cast<int>(i)) ? ops_t : ops_u).push_back(rate);
  }
  st.attempted = ok + st.failed;
  if (last > tl.start_ns) {
    st.ops_per_s = static_cast<double>(ok) * 1e9 /
                   static_cast<double>(last - tl.start_ns);
  }
  st.ops_per_s_untraced = Median(ops_u);
  st.ops_per_s_traced = Median(ops_t);
  st.lat_p50_us = Median(p50);
  st.lat_p99_us = Median(p99);
  return st;
}

cpr::server::KvServerOptions BaseServerOptions(uint32_t checkpoint_ms) {
  cpr::server::KvServerOptions so;
  so.port = 0;
  so.num_workers = 1;
  so.max_connections = 16;
  so.checkpoint_interval_ms = checkpoint_ms;
  return so;
}

// -- Files -------------------------------------------------------------------

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// -- Stats parsing -----------------------------------------------------------

namespace {

bool FindU64(const std::string& s, size_t from, size_t to, const char* key,
             uint64_t* out) {
  const std::string k = std::string("\"") + key + "\":";
  const size_t p = s.find(k, from);
  if (p == std::string::npos || p >= to) return false;
  *out = std::strtoull(s.c_str() + p + k.size(), nullptr, 10);
  return true;
}

}  // namespace

bool ParseBreakdown(const std::string& json, StageSums* out) {
  for (const char* stage : cpr::obs::kReqStageNames) {
    const std::string k = std::string("\"") + stage + "\":{";
    const size_t p = json.find(k);
    if (p == std::string::npos) return false;
    const size_t end = json.find('}', p);
    uint64_t count = 0, sum = 0;
    if (!FindU64(json, p, end, "count", &count) ||
        !FindU64(json, p, end, "sum_ns", &sum)) {
      return false;
    }
    out->stage[stage] = {count, sum};
  }
  return true;
}

uint64_t RegistryCounter(const std::string& name) {
  for (const cpr::obs::MetricSample& m :
       cpr::obs::MetricsRegistry::Default().Snapshot()) {
    if (m.name == name) return static_cast<uint64_t>(m.value);
  }
  return 0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

uint64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// -- Closing protocol ----------------------------------------------------------

namespace {

cpr::FaultInjector& Injector() {
  static cpr::FaultInjector injector;
  return injector;
}

bool WaitAll(const std::atomic<uint32_t>& counter, uint32_t n) {
  const uint64_t deadline = NowNs() + 60'000'000'000ull;
  while (counter.load() < n) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void SleepUntil(uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

}  // namespace

bool MeasureAndCrash(const Timeline& tl, Control& ctl, uint32_t participants,
                     cpr::kv::Backend& backend,
                     cpr::client::CprClient& control, uint32_t engines,
                     const std::function<bool()>& covered,
                     const std::string& ckpt_dir, LayerInputs* layers,
                     RunResult* out) {
  const bool trace = tl.trace;
  std::string breakdown;
  SleepUntil(tl.start_ns);
  uint64_t phase0[4];
  for (int i = 0; i < 4; ++i) phase0[i] = RegistryCounter(kPhaseCounter[i]);
  const uint64_t rounds0 = backend.LastCheckpointToken();
  if (trace && control.ServerBreakdown(&breakdown).ok()) {
    ParseBreakdown(breakdown, &layers->server_before);
  }
  SleepUntil(tl.start_ns + tl.slices * tl.slice_ns);
  if (trace && control.ServerBreakdown(&breakdown).ok()) {
    ParseBreakdown(breakdown, &layers->server_after);
  }
  for (int i = 0; i < 4; ++i) {
    layers->phase_ns[i] =
        static_cast<double>(RegistryCounter(kPhaseCounter[i]) - phase0[i]);
  }
  layers->engine_rounds = (backend.LastCheckpointToken() - rounds0) * engines;
  control.Close();
  Log("measured interval done");

  // 1. Fold, then checkpoint while the sessions keep issuing.
  ctl.phase.store(kFold);
  bool ok = WaitAll(ctl.folded, participants) && !ctl.failed_hard.load();
  for (int round = 0; ok && round < 3; ++round) {
    uint64_t token = 0;
    const uint64_t t0 = NowNs();
    while (!backend.Checkpoint(cpr::faster::CommitVariant::kFoldOver, false,
                               &token)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const cpr::Status st = backend.WaitForCheckpoint(token);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (round == 0) layers->round_ms = ms;
    if (!st.ok()) {
      out->Fail("closing checkpoint: " + st.message());
      ok = false;
    }
    Log("closing checkpoint %llu done in %.3f ms",
        static_cast<unsigned long long>(token), ms);
    if (covered()) break;
  }
  // 2. The sessions learn their commit point and send the tail.
  ctl.phase.store(kTail);
  ok = WaitAll(ctl.tail_sent, participants) && ok;
  if (ok) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!ckpt_dir.empty()) {
    layers->ckpt_bytes = static_cast<double>(DirBytes(ckpt_dir));
  }
  // 3. Freeze persistence; the sessions drain every outstanding ack.
  Injector().CrashNow();
  cpr::FaultInjector::Install(&Injector());
  ctl.phase.store(kCrashed);
  ok = WaitAll(ctl.done, participants) && ok;
  if (!ok) out->Fail("closing protocol did not complete");
  Log("crashed; sessions drained");
  return ok && !ctl.failed_hard.load();
}

void ThawPersistence() {
  cpr::FaultInjector::Install(nullptr);
  Injector().Reset();
}

namespace {
constexpr int kRecoveries = 9;
}  // namespace

double TimedRecoveries(
    const std::string& crashed, const std::string& root,
    const std::function<cpr::Status(const std::string&)>& recover,
    const std::function<void()>& drop, RunResult* out) {
  const std::string pristine = root + "/crashed";
  if (!CopyDir(crashed, pristine)) {
    out->Fail("copy of the crashed store failed");
    return -1;
  }
  std::vector<double> secs;
  for (int rep = 0; rep < kRecoveries; ++rep) {
    const std::string dir = root + "/recover-" + std::to_string(rep);
    if (!CopyDir(pristine, dir)) {
      out->Fail("copy of the crashed store failed");
      return -1;
    }
    const uint64_t t0 = NowNs();
    const cpr::Status st = recover(dir);
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      out->Fail("recover: " + st.message());
      return -1;
    }
    if (rep + 1 < kRecoveries) {
      drop();
      ReleaseFreedMemory();
      RemoveDir(dir);
    }
  }
  Log("recovered: median %.3f s of %d", Median(secs), kRecoveries);
  return Median(secs);
}

// -- Workload make-up --------------------------------------------------------

bool KvConfigFor(const std::string& workload, KvConfig* out) {
  KvConfig c;
  if (workload == "kv_mem") {
    // One shard whose whole keyspace stays in the mutable in-memory log.
    c.shards = 1;
    c.keys = 1 << 16;
    c.page_bits = 20;
    c.memory_pages = 32;
    c.index_buckets = 1 << 16;
    c.live_sessions = 2;
    // A host stall delays every operation in flight, so the share of
    // operations it reaches grows with the window. At 64 in flight per
    // session this workload's p99 varied 1.5x between runs even with
    // polling clients; at 16 its quartile spread over ten runs was 0.10.
    c.window = 16;
    // Host stalls come in bursts of tens of milliseconds; with 100 ms
    // slices a burst spoils a few slices and the median passes over them.
    c.slice_ms = 100;
    c.read_pct = 50;
    c.upsert_pct = 25;
    c.zipf_theta = 0.99;
    c.tail_ops = 64;
  } else if (workload == "kv_wide") {
    // Keyspace ~7x the in-memory log region; parked sessions beside one
    // pipelining client. Reads only: a write that must append to a full
    // in-memory log deadlocks a worker serving more than one session
    // (CHANGES.md, FOUND), so the measured traffic never appends.
    c.shards = 4;
    c.keys = 2 * 160 * 2048;
    c.page_bits = 16;
    c.memory_pages = 8;
    c.ro_lag_pages = 2;
    c.index_buckets = 1 << 17;
    c.live_sessions = 1;
    c.parked_sessions = 160;
    c.window = 64;
    c.burst = 32;
    // Each resume is a new connection whose closed socket then sits in
    // TIME_WAIT for a minute; the pace keeps back-to-back runs well inside
    // the ephemeral port range, where connect() stays cheap.
    c.resume_every_ms = 5;
    c.read_pct = 100;
    c.upsert_pct = 0;
    c.tail_ops = 64;
  } else if (workload == "kv_durable") {
    c.shards = 4;
    c.keys = 1 << 16;
    c.page_bits = 20;
    c.memory_pages = 16;
    c.index_buckets = 1 << 15;
    c.live_sessions = 2;
    c.window = 64;
    c.read_pct = 10;
    c.upsert_pct = 10;
    c.durable = true;
    c.checkpoint_ms = 100;
    c.tail_ops = 64;
  } else {
    return false;
  }
  *out = c;
  return true;
}

// The first n key ids, leaving out every key that shares its shard's
// hash-index entry (bucket and tag) with another candidate. Such keys form
// multi-record chains, and FasterKv cannot complete an operation that must
// follow a chain through more than one disk-resident record (CHANGES.md,
// FOUND). The set depends on the store layout only, never on the seed.
std::vector<uint64_t> ChainFreeKeys(const KvConfig& cfg, uint64_t n) {
  const uint64_t candidates = n + n / 16 + 64;
  auto entry = [&](uint64_t k) {
    const uint64_t h = cpr::Hash64(k);
    const uint64_t shard = (h >> 32) % cfg.shards;
    const uint64_t bucket = h & (cfg.index_buckets - 1);
    return ((shard * cfg.index_buckets + bucket) << 14) | ((h >> 48) & 0x3fff);
  };
  std::unordered_map<uint64_t, uint32_t> count;
  count.reserve(candidates * 2);
  for (uint64_t k = 0; k < candidates; ++k) ++count[entry(k)];
  std::vector<uint64_t> ids;
  ids.reserve(n);
  for (uint64_t k = 0; k < candidates && ids.size() < n; ++k) {
    if (count[entry(k)] == 1) ids.push_back(k);
  }
  return ids;
}

cpr::workloads::TpccConfig TpccMakeUp() {
  cpr::workloads::TpccConfig c;
  c.num_warehouses = 2;
  c.items = 5'000;
  c.customers_per_district = 300;
  // 64 order slots per district keep a full CPR commit near 2.5 MB, so the
  // 100 ms commits write ~25 MB/s rather than ~70 MB/s.
  c.order_pool_per_district = 64;
  c.min_order_lines = 5;
  c.max_order_lines = 15;
  return c;
}

cpr::kv::ShardedKv::Options KvStoreOptions(const KvConfig& cfg,
                                           const std::string& dir) {
  cpr::kv::ShardedKv::Options o;
  o.base.dir = dir;
  o.base.index_buckets = cfg.index_buckets;
  o.base.value_size = 8;
  o.base.page_bits = cfg.page_bits;
  o.base.memory_pages = cfg.memory_pages;
  o.base.ro_lag_pages = cfg.ro_lag_pages;
  o.base.io_threads = 1;
  o.num_shards = cfg.shards;
  o.recovery_workers = std::min<uint32_t>(2, cfg.shards);
  return o;
}

}  // namespace cprbench
