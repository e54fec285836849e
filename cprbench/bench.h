#ifndef CPRBENCH_BENCH_H_
#define CPRBENCH_BENCH_H_

// Shared pieces of the end-to-end CPR benchmark: run configuration, the
// benchmark's own latency histogram, span recording for the traced run, and
// the per-run result every workload fills in.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "server/server.h"
#include "shard/sharded_kv.h"
#include "workloads/tpcc.h"

namespace cprbench {

uint64_t NowNs();
uint64_t Mix64(uint64_t x);
// Progress line on stderr, stamped with seconds since start.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Which checks the self-test deliberately breaks (see selftest.py).
enum class Corrupt {
  kNone,
  kLostOp,            // recovered KV state misses one committed write
  kSerialBelowAck,    // recovered serial reported below a durable ack
  kTpccLostAdd,       // recovered TPC-C state misses one kAdd delta
  kReadYourWrites,    // one own-slice read result is altered
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string dir;      // scratch root for stores (removed by the caller)
  std::string out_dir;  // trace + per-layer files (traced run only)
  Corrupt corrupt = Corrupt::kNone;
};

// Log-linear latency histogram: exact below 128 ns, then 128 sub-buckets per
// power of two (bucket width < 0.8% of the value). Each bucket keeps its
// sample sum, so a quantile reports the mean of the samples in the bucket
// holding it — a measured value, not a bucket bound. A power of two's
// buckets are allocated when its first sample lands, so a slice's histogram
// costs only the few octaves its latencies span.
class LatHist {
 public:
  LatHist();
  void Add(uint64_t ns);
  void Merge(const LatHist& other);
  // Mean of the bucket holding the q-quantile sample, in ns (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr uint32_t kSub = 128;
  static constexpr uint32_t kBlocks = 58;  // [0, 128) ns, then 57 octaves
  struct Bucket {
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::vector<Bucket>& Block(size_t b);
  std::vector<std::vector<Bucket>> blocks_;
  uint64_t n_ = 0;
};

// One measured slice of the interval: acks, failures and latencies.
struct Slice {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t last_ns = 0;  // time of the slice's latest ack
  LatHist lat;
};

// How an ack counts: a completed operation, a failed one, or neither (a
// control op, or a TXN conflict that the session retries).
enum class Ack { kOk, kFailed, kUncounted };

// Books one ack into its slice of the measured interval (slice < 0: outside).
inline void CountAck(Ack ack, int slice, uint64_t now, uint64_t latency_ns,
                     std::vector<Slice>& slices) {
  if (slice < 0 || ack == Ack::kUncounted) return;
  Slice& s = slices[static_cast<size_t>(slice)];
  s.last_ns = now;
  if (ack == Ack::kOk) {
    ++s.ok;
    s.lat.Add(latency_ns);
  } else {
    ++s.failed;
  }
}

// Spans recorded from the benchmark's own code around calls into a layer
// (traced run only). A thread appends to its own log; the logs are merged
// and written as Chrome trace JSON at exit.
struct Span {
  const char* name = "";
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // window (or probe) id shared by related spans
  uint64_t parent = 0;  // id of the enclosing span's window, 0 for roots
};

class SpanLog {
 public:
  static constexpr size_t kCap = 200'000;
  void Add(const Span& s) {
    if (spans_.size() < kCap) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  void Merge(const SpanLog& o);
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Client-layer accounting kept by every session loop (traced slices only).
struct ClientLayer {
  uint64_t flushes = 0;
  uint64_t flush_ns = 0;
  uint64_t flushed_ops = 0;
  uint64_t drain_waits = 0;
  uint64_t drain_wait_ns = 0;

  void Merge(const ClientLayer& o) {
    flushes += o.flushes;
    flush_ns += o.flush_ns;
    flushed_ops += o.flushed_ops;
    drain_waits += o.drain_waits;
    drain_wait_ns += o.drain_wait_ns;
  }
};

// Timeline shared by the controller and the session threads. Slices of the
// measured interval alternate untraced/traced in a traced run.
struct Timeline {
  uint64_t start_ns = 0;  // end of warm-up
  uint64_t slice_ns = 1'000'000'000;
  uint32_t slices = 0;
  bool trace = false;
  // Slice index of `t`, or -1 outside the measured interval.
  int SliceOf(uint64_t t) const {
    if (t < start_ns) return -1;
    const uint64_t i = (t - start_ns) / slice_ns;
    return i < slices ? static_cast<int>(i) : -1;
  }
  bool Traced(int slice) const { return trace && slice >= 0 && (slice & 1); }
};

// Closing-phase protocol between the controller and the session threads.
enum Phase : int {
  kRun = 0,     // warm-up + measured interval
  kFold = 1,    // fix the fold point (last acked serial), keep issuing
  kTail = 2,    // checkpoint done: learn the commit point, send the tail
  kCrashed = 3, // persistence frozen: drain every outstanding ack
};

struct Control {
  std::atomic<int> phase{kRun};
  std::atomic<uint32_t> folded{0};
  std::atomic<uint32_t> tail_sent{0};
  std::atomic<uint32_t> done{0};
  std::atomic<bool> failed_hard{false};  // a session could not continue
};

// Result of one workload run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;  // value, unit

  // Marks the run incorrect and reports `why` on stderr.
  void Fail(const std::string& why);
  void Metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

// Aggregates the per-thread slices of a run into the end-to-end metrics and
// attempted/failed counts. Throughput is the acks of the whole measured
// interval over the time from its start to its last ack. A latency
// quantile is the median over the slices of the slice's quantile, so a
// stalled stretch of the run does not decide its p99.
struct SliceStats {
  double ops_per_s = 0;
  double ops_per_s_untraced = 0; // median over untraced slices
  double ops_per_s_traced = 0;   // median over traced slices
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};
SliceStats Summarize(const std::vector<std::vector<Slice>>& per_thread,
                     const Timeline& tl);

double Median(std::vector<double> v);

// Set-ups per run; the median is setup_s. Set-up and recovery take tens of
// milliseconds, so one of them is at the mercy of a single host stall.
constexpr int kSetups = 5;

// Server options every workload shares: one worker, span sampling off.
cpr::server::KvServerOptions BaseServerOptions(uint32_t checkpoint_ms);

// Size in bytes of the files under `dir` (recursive); 0 if missing.
uint64_t DirBytes(const std::string& dir);
// Copies `from` to `to` recursively (to must not exist).
bool CopyDir(const std::string& from, const std::string& to);
void RemoveDir(const std::string& dir);

// Parses "count" and "sum_ns" of each stage out of the STATS breakdown JSON.
struct StageSums {
  std::map<std::string, std::pair<uint64_t, uint64_t>> stage;  // count, sum
};
bool ParseBreakdown(const std::string& json, StageSums* out);

// Process-wide registry counter value by exact name (0 if absent).
uint64_t RegistryCounter(const std::string& name);

uint64_t PeakRssKb();
// Returns freed heap memory to the system after a throwaway store is torn
// down, so the repeated set-ups and recoveries do not inflate peak_rss_mb.
void ReleaseFreedMemory();

// Make-up of one KV workload (README.md lists the values).
struct KvConfig {
  uint32_t shards = 1;
  uint64_t keys = 0;
  uint32_t page_bits = 20;
  uint32_t memory_pages = 32;
  uint32_t ro_lag_pages = 4;
  uint64_t index_buckets = 1 << 16;  // per shard
  uint32_t live_sessions = 2;        // one client thread each
  uint32_t parked_sessions = 0;      // resumed by one extra client thread
  uint32_t window = 64;              // ops in flight per live session
  uint32_t burst = 0;                // ops per resumed parked session
  uint32_t resume_every_ms = 0;      // pace of parked-session resumes
  uint32_t read_pct = 50;
  uint32_t upsert_pct = 25;          // the rest are RMWs
  double zipf_theta = 0;             // 0: uniform
  bool durable = false;              // durable acks
  uint32_t checkpoint_ms = 0;        // server's periodic checkpoints
  uint32_t tail_ops = 0;             // per live session, closing check
  uint32_t slice_ms = 1000;          // measured-interval slice length
};
bool KvConfigFor(const std::string& workload, KvConfig* out);
cpr::kv::ShardedKv::Options KvStoreOptions(const KvConfig& cfg,
                                           const std::string& dir);
// The key ids a store with this layout is loaded with (see common.cc).
std::vector<uint64_t> ChainFreeKeys(const KvConfig& cfg, uint64_t n);

// TPC-C make-up of txn_tpcc (also the txdb probes' database).
cpr::workloads::TpccConfig TpccMakeUp();

// Inputs of the per-layer report that only the workload run can supply.
struct LayerInputs {
  const KvConfig* kv = nullptr;  // store layout for the shard/faster probes
  uint32_t sessions = 0;         // sessions registered with the store
  std::vector<cpr::net::Request> sample;  // the workload's own requests
  ClientLayer client;
  StageSums server_before, server_after;
  double ops_untraced = 0, ops_traced = 0;
  double round_ms = 0;   // closing round: Checkpoint() -> WaitForCheckpoint()
  bool round_is_txdb = false;
  double phase_ns[4] = {0, 0, 0, 0};  // registry deltas over the interval
  uint64_t engine_rounds = 0;         // engine checkpoints in that interval
  double ckpt_bytes = 0;
  uint64_t txn_committed = 0, txn_conflicts = 0;
};
// Runs the layer probes and adds every per-layer metric to `out`; spans of
// the probes go to `spans`. `dir` is a scratch directory for probe stores.
void ReportLayers(const LayerInputs& in, const std::string& dir,
                  SpanLog* spans, RunResult* out);

extern const char* const kPhaseCounter[4];

// The controller's side of a run once the sessions are started: waits out
// the measured interval (noting the layer figures around it), then drives
// the closing protocol up to the crash — fold, a checkpoint taken while the
// sessions keep issuing, the tail, and the persistence freeze — and waits
// until every session has drained. `ckpt_dir` (traced run) is sized for
// io.ckpt_mb after the checkpoint. False if the protocol did not complete.
// `covered()` tells whether the backend's durable commit points now reach
// every session's fold point: a backend may answer a checkpoint request with
// a round that was already in flight (TxDbBackend coalesces), which covers
// less, so the controller then takes another round.
bool MeasureAndCrash(const Timeline& tl, Control& ctl, uint32_t participants,
                     cpr::kv::Backend& backend,
                     cpr::client::CprClient& control, uint32_t engines,
                     const std::function<bool()>& covered,
                     const std::string& ckpt_dir, LayerInputs* layers,
                     RunResult* out);
// Lifts the persistence freeze of MeasureAndCrash (after the teardown).
void ThawPersistence();

// Recovers nine times, each from a fresh copy (under `root`) of the crashed
// store in `crashed`: `recover(dir)` builds the backend on `dir` and runs
// its recovery, `drop()` tears a throwaway one down. The last recovery is
// kept to serve. Returns the median wall time in seconds (recover_s), or -1
// after recording the failure in `out`.
double TimedRecoveries(
    const std::string& crashed, const std::string& root,
    const std::function<cpr::Status(const std::string&)>& recover,
    const std::function<void()>& drop, RunResult* out);

int RunKv(const Args& args, RunResult* out);
int RunTpcc(const Args& args, RunResult* out);

}  // namespace cprbench

#endif  // CPRBENCH_BENCH_H_
