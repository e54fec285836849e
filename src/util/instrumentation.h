#ifndef CPR_UTIL_INSTRUMENTATION_H_
#define CPR_UTIL_INSTRUMENTATION_H_

#include <atomic>
#include <cstdint>

#include "util/cacheline.h"
#include "util/clock.h"
#include "util/sharded_histogram.h"

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

// Counters for the network serving layer (src/server). Updated from worker
// and acceptor threads; sampled by monitoring/bench code, so every field is
// a relaxed atomic. `Snapshot()` gives a plain copy for reporting.
struct ServerCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> ops_pending{0};       // ops that went asynchronous
  std::atomic<uint64_t> durable_held{0};      // responses gated on durability
  std::atomic<uint64_t> checkpoints{0};       // checkpoints started via wire
  std::atomic<uint64_t> checkpoint_stalls{0}; // CHECKPOINT rejected: in flight
  std::atomic<uint64_t> checkpoint_failures{0}; // checkpoints that failed to
                                                // persist (storage faults)
  std::atomic<uint64_t> not_durable_acks{0};  // durable-gated responses
                                              // released as NOT_DURABLE
  // not_durable_acks split by cause, so a NOT_DURABLE spike is attributable:
  // the single engine's checkpoint write failed, vs. a coordinated
  // cross-shard round degraded because some shard failed its checkpoint.
  std::atomic<uint64_t> not_durable_engine{0};
  std::atomic<uint64_t> not_durable_degraded{0};
  std::atomic<uint64_t> protocol_errors{0};
  // Instant-restart serving surface: ops that arrived while their shard was
  // still restoring and parked in the bounded pending queue, ops rejected
  // RECOVERING because the queue was full, and parked ops failed at
  // shutdown because their shard never became ready in time.
  std::atomic<uint64_t> ops_parked{0};
  std::atomic<uint64_t> recovering_rejections{0};
  std::atomic<uint64_t> parked_failed_at_shutdown{0};
  // Wall-clock from the first accepted connection to the first data op
  // answered, and from listener-up to the end of background recovery. Their
  // ratio is the instant-restart win: first op served long before the full
  // store is restored.
  std::atomic<uint64_t> time_to_first_op_ns{0};
  std::atomic<uint64_t> recovery_duration_ns{0};
  // Observed workload mix — single-key data ops plus TXN read/write-set
  // members — feeding the adaptive durability policy (read-heavy favors
  // WAL, write-heavy favors CPR).
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> write_ops{0};
  // Slow-reader flow control: connections whose outbuf backlog crossed the
  // soft cap (server stops reading from them until they drain) and
  // connections closed for blowing through the hard cap.
  std::atomic<uint64_t> slow_reader_throttled{0};
  std::atomic<uint64_t> slow_reader_closed{0};

  // Execute→durable lag of durable-gated responses: time from enqueueing the
  // executed operation until its covering checkpoint released the ack.
  // Multiple workers record, so this rides the lock-free sharded-slot
  // histogram (same log2 path the metrics registry uses): a record is three
  // relaxed RMWs on the caller's slot, no mutex on the ack path. The
  // snapshot's durable_lag.max is the largest lag seen.
  void RecordDurableLag(uint64_t ns) { durable_lag_.Record(ns); }

  struct Snapshot {
    uint64_t connections_accepted, connections_active, requests, responses,
        bytes_in, bytes_out, ops_pending, durable_held, checkpoints,
        checkpoint_stalls, checkpoint_failures, not_durable_acks,
        not_durable_engine, not_durable_degraded, protocol_errors, ops_parked,
        recovering_rejections, parked_failed_at_shutdown, time_to_first_op_ns,
        recovery_duration_ns, read_ops, write_ops, slow_reader_throttled,
        slow_reader_closed;
    HistogramData durable_lag;
    // Cumulative engine checkpoint phase time, indexed by
    // kCheckpointPhaseNames (filled in by KvServer::counters() from the
    // metrics registry; zero when sampled straight off the struct).
    uint64_t checkpoint_phase_ns[4] = {0, 0, 0, 0};
  };

  static constexpr const char* kCheckpointPhaseNames[4] = {
      "prepare", "in_progress", "wait_pending", "wait_flush"};

  Snapshot Sample() const {
    auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    Snapshot s{ld(connections_accepted), ld(connections_active),
               ld(requests),             ld(responses),
               ld(bytes_in),             ld(bytes_out),
               ld(ops_pending),          ld(durable_held),
               ld(checkpoints),          ld(checkpoint_stalls),
               ld(checkpoint_failures),  ld(not_durable_acks),
               ld(not_durable_engine),   ld(not_durable_degraded),
               ld(protocol_errors),      ld(ops_parked),
               ld(recovering_rejections), ld(parked_failed_at_shutdown),
               ld(time_to_first_op_ns),  ld(recovery_duration_ns),
               ld(read_ops),             ld(write_ops),
               ld(slow_reader_throttled), ld(slow_reader_closed),
               durable_lag_.Sample()};
    return s;
  }

 private:
  HistogramMetric durable_lag_;
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
