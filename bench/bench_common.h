#ifndef CPR_BENCH_BENCH_COMMON_H_
#define CPR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "faster/faster.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "txdb/db.h"
#include "util/instrumentation.h"
#include "workloads/ycsb.h"

namespace cpr::bench {

// -- Environment-tunable parameters -----------------------------------------
//
// Every bench binary reads its scale knobs from the environment so the
// paper-scale experiment (250M keys, 64 threads, 100+ second runs) can be
// requested on bigger hardware:
//   CPR_BENCH_THREADS      max worker threads (default 4)
//   CPR_BENCH_KEYS         table/keyspace size (default 100000)
//   CPR_BENCH_SECONDS      measured seconds per run (default varies)
//   CPR_BENCH_SCALE        multiplies run durations (default 1.0)

uint64_t EnvU64(const char* name, uint64_t def);
double EnvF64(const char* name, double def);

// Thread counts for scalability sweeps: 1,2,4,...,CPR_BENCH_THREADS.
std::vector<uint32_t> SweepThreads();

// Fresh scratch directory under /tmp for a bench run, removed at exit.
std::string FreshBenchDir(const std::string& tag);

// -- Transactional-database runner (Figs. 2, 10, 11, 16, 17) ---------------

struct TimePoint {
  double t = 0;       // seconds since measurement start
  double mtps = 0;    // million committed txns/sec in this interval
  double log_mb = 0;  // durability log size, where applicable
};

struct TxdbRunConfig {
  txdb::DurabilityMode mode = txdb::DurabilityMode::kCpr;
  uint32_t threads = 4;
  workloads::YcsbConfig ycsb;
  double seconds = 1.0;
  double warmup_seconds = 0.2;
  // Commit requests at these times (seconds into measurement).
  std::vector<double> commit_at;
  // >0: record a throughput sample every interval.
  double sample_interval = 0;
  // Use the TPC-C workload instead of YCSB (payment_pct then applies).
  bool tpcc = false;
  uint32_t tpcc_payment_pct = 50;
  uint32_t tpcc_warehouses = 4;
};

struct TxdbRunResult {
  double mtps = 0;             // committed throughput over the measured window
  double mean_latency_us = 0;  // sampled per-txn latency
  double p99_latency_us = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  BreakdownCounters breakdown;
  std::vector<TimePoint> series;
};

TxdbRunResult RunTxdb(const TxdbRunConfig& config);

// -- FASTER runner (Figs. 12, 13, 14, 15, 18) --------------------------------

struct FasterCommitMark {
  double at = 0;  // seconds into measurement
  faster::CommitVariant variant = faster::CommitVariant::kFoldOver;
  bool include_index = true;
};

struct FasterRunConfig {
  uint32_t threads = 4;
  uint64_t num_keys = 100'000;
  uint32_t value_size = 8;
  bool zipf = true;
  double theta = 0.99;
  uint32_t read_pct = 50;  // remainder: blind upserts
  bool rmw = false;        // true: all updates are RMW (paper's 0:100 RMW)
  double seconds = 5.0;
  double sample_interval = 0.5;
  std::vector<FasterCommitMark> commits;
  faster::CheckpointLocking locking =
      faster::CheckpointLocking::kFineGrained;
  uint32_t page_bits = 20;
  uint32_t memory_pages = 48;
  uint32_t refresh_interval = 64;
  bool track_latency = false;
};

struct FasterRunResult {
  double mops = 0;  // million ops/sec over the measured window
  uint64_t total_ops = 0;
  // Operation latencies sampled separately while the store is at rest and
  // while a CPR commit is in flight (Fig. 14's contrast).
  double rest_mean_us = 0;
  double rest_p99_us = 0;
  double commit_mean_us = 0;
  double commit_p99_us = 0;
  std::vector<TimePoint> series;           // throughput (+ log MB) over time
  std::vector<double> commit_durations_s;  // wall time of each commit
};

FasterRunResult RunFaster(const FasterRunConfig& config);

// -- Per-run deltas of process-cumulative metrics -----------------------------
//
// The registry's checkpoint phase counters and request-stage histograms add
// up across every store and run in the process; sampling them around a run
// turns them into that run's figures.

// The `phase` labels of cpr_faster_checkpoint_phase_ns_total, in commit
// order; also the keys of the benches' "checkpoint_phase_ns" objects.
inline constexpr const char* kCheckpointPhases[4] = {
    "prepare", "in_progress", "wait_pending", "wait_flush"};

// cpr_faster_checkpoint_phase_ns_total for kCheckpointPhases[phase].
uint64_t PhaseCounterNs(int phase);

// -- --stats-json output -------------------------------------------------------
//
// Builds a bench's --stats-json document. The writer starts inside the
// top-level object; Begin*/End nest objects and arrays. Every member takes
// its key, which is nullptr for an element of an array.
class JsonWriter {
 public:
  JsonWriter() : out_("{"), closers_("}") {}

  JsonWriter& BeginObject(const char* key) { return Open(key, '{', '}'); }
  JsonWriter& BeginArray(const char* key) { return Open(key, '[', ']'); }
  JsonWriter& End();  // closes the innermost open object or array

  JsonWriter& Str(const char* key, const std::string& v);
  JsonWriter& U64(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonWriter& F64(const char* key, double v, int decimals);
  JsonWriter& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  // {"p50", "p99", "sum", "count"} of `h`; with `lag` set, the durable-lag
  // form {"p50", "p99", "max"}.
  JsonWriter& Hist(const char* key, const obs::HistogramData& h,
                   bool lag = false);

  // Closes every open scope and writes the document to `path`, reporting
  // the path on stdout (or the failure on stderr).
  bool WriteFile(const char* path);

 private:
  void Key(const char* key);  // separator, indent and `"key": `
  void Quote(const std::string& s);
  JsonWriter& Open(const char* key, char open, char close);
  JsonWriter& Raw(const char* key, const std::string& text);

  std::string out_;
  std::string closers_;  // closing bracket of each open scope
  bool empty_scope_ = true;
};

// The registry's request-stage and end-to-end histograms (cpr_req_stage_ns,
// cpr_req_e2e_ns). They add up over every server in the process; sampling
// them around a run and taking Since() gives that run's breakdown.
struct ReqBreakdown {
  obs::HistogramData stage[obs::kNumReqStages];  // obs::ReqStage order
  obs::HistogramData e2e;

  static ReqBreakdown Sample();
  // `*this` minus `before`, bucket by bucket.
  ReqBreakdown Since(const ReqBreakdown& before) const;
  // One line of stage and e2e p50/p99; nothing when no op was traced.
  void Print() const;
  // The "req_stage_ns" and "e2e_ns" members of a run's JSON object.
  void WriteJson(JsonWriter& j) const;
};

// -- Output helpers ----------------------------------------------------------

void PrintHeader(const std::string& figure, const std::string& what);
void PrintSeries(const std::string& label, const std::vector<TimePoint>& pts,
                 bool with_log_size = false);

}  // namespace cpr::bench

#endif  // CPR_BENCH_BENCH_COMMON_H_
