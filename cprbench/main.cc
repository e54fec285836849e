// cprbench: one workload run of the end-to-end CPR benchmark.
//
//   cprbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//            [--out DIR] [--corrupt lost_op|serial_below_ack|tpcc_lost_add|
//                                   read_your_writes]
//
// Prints one JSON object as its last stdout line: correct, attempted, failed
// and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when a check fails. run.py builds this binary
// and wraps it with a scratch directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/reqtrace.h"

namespace {

std::string ResultJson(const cprbench::RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.9g", vu.first);
    s += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  s += "}}";
  return s;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cprbench --workload kv_mem|kv_wide|kv_durable|txn_tpcc "
               "--seed N --seconds S --trace 0|1 --dir DIR [--out DIR] "
               "[--corrupt CASE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cprbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--dir") {
      args.dir = v;
    } else if (k == "--out") {
      args.out_dir = v;
    } else if (k == "--corrupt") {
      using cprbench::Corrupt;
      if (v == "lost_op") {
        args.corrupt = Corrupt::kLostOp;
      } else if (v == "serial_below_ack") {
        args.corrupt = Corrupt::kSerialBelowAck;
      } else if (v == "tpcc_lost_add") {
        args.corrupt = Corrupt::kTpccLostAdd;
      } else if (v == "read_your_writes") {
        args.corrupt = Corrupt::kReadYourWrites;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  cprbench::KvConfig kv;
  const bool is_kv = cprbench::KvConfigFor(args.workload, &kv);
  if ((!is_kv && args.workload != "txn_tpcc") || args.dir.empty() ||
      args.seconds == 0) {
    return Usage();
  }
  if (args.trace && args.seconds < 2) args.seconds = 2;

  // End-to-end figures are taken with ReqTrace span sampling off; the
  // per-stage aggregates still record.
  cpr::obs::ReqTrace::Default().set_sample_every(0);

  cprbench::RunResult result;
  const int rc = is_kv ? cprbench::RunKv(args, &result)
                       : cprbench::RunTpcc(args, &result);
  if (rc != 0 && result.correct) result.Fail("run aborted");
  if (!args.trace) {
    result.Metric("peak_rss_mb",
                  static_cast<double>(cprbench::PeakRssKb()) / 1024.0, "MB");
  }
  const std::string line = ResultJson(result);
  if (args.trace && !args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".layers.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
