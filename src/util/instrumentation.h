#ifndef CPR_UTIL_INSTRUMENTATION_H_
#define CPR_UTIL_INSTRUMENTATION_H_

#include <cstdint>

#include "util/cacheline.h"
#include "util/clock.h"

namespace cpr {

// Per-thread cost breakdown used to regenerate the paper's Fig. 10e / 16e /
// 17e profiles. Buckets mirror the paper's labels:
//   exec            in-memory transaction processing incl. lock acquire/release
//   tail_contention LSN allocation (WAL) / atomic commit log append (CALC)
//   log_write       copying redo payloads into the WAL buffer
//   abort           work thrown away by aborted transactions
// All values are wall-clock nanoseconds accumulated by the owning thread;
// never written cross-thread, so plain (non-atomic) fields suffice.
struct alignas(kCacheLineBytes) BreakdownCounters {
  uint64_t exec_ns = 0;
  uint64_t tail_contention_ns = 0;
  uint64_t log_write_ns = 0;
  uint64_t abort_ns = 0;
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t cpr_aborts = 0;  // aborts caused by a CPR version shift

  void Reset() { *this = BreakdownCounters(); }

  BreakdownCounters& operator+=(const BreakdownCounters& o) {
    exec_ns += o.exec_ns;
    tail_contention_ns += o.tail_contention_ns;
    log_write_ns += o.log_write_ns;
    abort_ns += o.abort_ns;
    committed_txns += o.committed_txns;
    aborted_txns += o.aborted_txns;
    cpr_aborts += o.cpr_aborts;
    return *this;
  }
};

// Scoped timer adding elapsed nanoseconds to a counter on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(uint64_t& sink) : sink_(sink), start_(NowNanos()) {}
  ~ScopedTimer() { sink_ += NowNanos() - start_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  uint64_t& sink_;
  uint64_t start_;
};

}  // namespace cpr

#endif  // CPR_UTIL_INSTRUMENTATION_H_
