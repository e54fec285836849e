// Reproduces Fig. 14: operation latency at rest vs during a CPR commit, for
// the fine-grained (bucket latches) and coarse-grained (offset-based)
// version-transfer schemes, on 0:100 blind-update and 0:100 RMW workloads
// (log-only fold-over commits), Zipf and Uniform.
//
// Expected shape: rest-phase latency is in the hundreds of nanoseconds;
// during a commit it rises, with coarse-grained markedly worse than
// fine-grained for RMW (data-dependent hand-off makes requests go pending).
//
// --stats-json=PATH writes a machine-readable summary of every cell
// (latencies, throughput, per-phase checkpoint time) for CI trend tracking.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace cpr::bench {
namespace {

struct Cell {
  std::string label;  // "rmw/fine-grained/Zipf"
  FasterRunResult r;
  uint64_t phase_ns[4] = {0, 0, 0, 0};  // per-run checkpoint phase time
};

void WriteStatsJson(const char* path, uint32_t threads, double seconds,
                    const std::vector<Cell>& cells) {
  JsonWriter j;
  j.Str("bench", "fig14_latency").U64("threads", threads);
  j.F64("seconds", seconds, 3).BeginArray("runs");
  for (const Cell& c : cells) {
    j.BeginObject(nullptr).Str("label", c.label).F64("mops", c.r.mops, 3);
    j.U64("total_ops", c.r.total_ops);
    j.F64("rest_mean_us", c.r.rest_mean_us, 3);
    j.F64("rest_p99_us", c.r.rest_p99_us, 3);
    j.F64("commit_mean_us", c.r.commit_mean_us, 3);
    j.F64("commit_p99_us", c.r.commit_p99_us, 3);
    j.BeginObject("checkpoint_phase_ns");
    for (int p = 0; p < 4; ++p) j.U64(kCheckpointPhases[p], c.phase_ns[p]);
    j.End().End();
  }
  j.WriteFile(path);
}

void Run(const char* stats_json) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const double seconds = 4.0 * scale;
  const uint64_t keys = EnvU64("CPR_BENCH_KEYS", 100'000);
  const uint32_t threads =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_THREADS", 4));

  std::vector<Cell> cells;
  for (bool rmw : {false, true}) {
    PrintHeader("Fig. 14", std::string("latency, 0:100 ") +
                               (rmw ? "RMW" : "blind updates") +
                               ", log-only fold-over commits");
    std::printf("%-14s %-8s %12s %12s %14s %14s\n", "locking", "dist",
                "rest mean(us)", "rest p99(us)", "commit mean(us)",
                "commit p99(us)");
    for (faster::CheckpointLocking locking :
         {faster::CheckpointLocking::kFineGrained,
          faster::CheckpointLocking::kCoarseGrained}) {
      for (bool zipf : {true, false}) {
        FasterRunConfig cfg;
        cfg.threads = threads;
        cfg.num_keys = keys;
        cfg.read_pct = 0;
        cfg.rmw = rmw;
        cfg.zipf = zipf;
        cfg.seconds = seconds;
        cfg.sample_interval = 0;
        cfg.locking = locking;
        cfg.track_latency = true;
        // Several log-only commits so the "during commit" histogram fills.
        cfg.commits = {
            {seconds * 0.2, faster::CommitVariant::kFoldOver, true},
            {seconds * 0.45, faster::CommitVariant::kFoldOver, false},
            {seconds * 0.7, faster::CommitVariant::kFoldOver, false},
        };
        uint64_t phase_base[4];
        for (int p = 0; p < 4; ++p) phase_base[p] = PhaseCounterNs(p);
        const FasterRunResult r = RunFaster(cfg);
        const char* lock_name =
            locking == faster::CheckpointLocking::kFineGrained
                ? "fine-grained"
                : "coarse-grained";
        const char* dist = zipf ? "Zipf" : "Uniform";
        std::printf("%-14s %-8s %12.3f %12.3f %14.3f %14.3f\n", lock_name,
                    dist, r.rest_mean_us, r.rest_p99_us, r.commit_mean_us,
                    r.commit_p99_us);
        Cell cell;
        cell.label = std::string(rmw ? "rmw" : "upsert") + "/" + lock_name +
                     "/" + dist;
        cell.r = r;
        for (int p = 0; p < 4; ++p) {
          cell.phase_ns[p] = PhaseCounterNs(p) - phase_base[p];
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  if (stats_json != nullptr) {
    WriteStatsJson(stats_json, threads, seconds, cells);
  }
}

}  // namespace
}  // namespace cpr::bench

int main(int argc, char** argv) {
  const char* stats_json = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json = argv[i] + 13;
    }
  }
  cpr::bench::Run(stats_json);
  return 0;
}
