#ifndef CPR_SERVER_COUNTERS_H_
#define CPR_SERVER_COUNTERS_H_

// Counters of one KvServer. Worker and acceptor threads bump the fields with
// direct relaxed atomic RMWs; KvServer::counters(), the adaptive durability
// policy and the watchdog read a Sample(), and the server's registry
// collector emits them on every STATS scrape. Each server owns its own
// ServerCounters, so two servers in one process never share values.

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

// CPR_SERVER_COUNTERS is the one list of (field, STATS name) pairs: the
// atomic fields, their Snapshot copy and the collector's emissions are all
// generated from it. The fields, in table order:
//   connections_accepted .. bytes_out  connection and traffic totals
//   ops_pending            ops that went asynchronous
//   durable_held           responses gated on durability
//   checkpoints            checkpoints started via the wire
//   checkpoint_stalls      CHECKPOINT rejected: one already in flight
//   checkpoint_failures    checkpoints that failed to persist (storage
//                          faults)
//   not_durable_acks       durable-gated responses released as NOT_DURABLE,
//                          split by cause so a spike is attributable:
//   not_durable_engine     the single engine's checkpoint write failed
//   not_durable_degraded   a coordinated cross-shard round degraded because
//                          some shard failed its checkpoint
//   protocol_errors        malformed frames and protocol violations
//   ops_parked             instant restart: ops that arrived while their
//                          shard was still restoring and parked in the
//                          bounded pending queue,
//   recovering_rejections  ops rejected RECOVERING because it was full,
//   parked_failed_at_shutdown  parked ops failed at shutdown because their
//                          shard never became ready in time
//   time_to_first_op_ns    wall-clock from the later of listener-up and the
//                          first accepted connection to the first data op
//                          answered, and
//   recovery_duration_ns   from listener-up to the end of background
//                          recovery; their ratio is the instant-restart win
//   read_ops, write_ops    observed workload mix (single-key data ops plus
//                          TXN read/write-set members) feeding the adaptive
//                          durability policy
//   slow_reader_throttled  connections whose outbuf backlog crossed the soft
//                          cap (the server stops reading them until they
//                          drain), and
//   slow_reader_closed     connections closed for passing the hard cap
#define CPR_SERVER_COUNTERS(X)                                               \
  X(connections_accepted, "cpr_server_connections_accepted_total")           \
  X(connections_active, "cpr_server_connections_active")                     \
  X(requests, "cpr_server_requests_total")                                   \
  X(responses, "cpr_server_responses_total")                                 \
  X(bytes_in, "cpr_server_bytes_in_total")                                   \
  X(bytes_out, "cpr_server_bytes_out_total")                                 \
  X(ops_pending, "cpr_server_ops_pending_total")                             \
  X(durable_held, "cpr_server_durable_held_total")                           \
  X(checkpoints, "cpr_server_checkpoints_total")                             \
  X(checkpoint_stalls, "cpr_server_checkpoint_stalls_total")                 \
  X(checkpoint_failures, "cpr_server_checkpoint_failures_total")             \
  X(not_durable_acks, "cpr_server_not_durable_acks_total")                   \
  X(not_durable_engine, "cpr_server_not_durable_acks_engine_total")          \
  X(not_durable_degraded, "cpr_server_not_durable_acks_degraded_total")      \
  X(protocol_errors, "cpr_server_protocol_errors_total")                     \
  X(ops_parked, "cpr_server_ops_parked_total")                               \
  X(recovering_rejections, "cpr_server_recovering_rejections_total")         \
  X(parked_failed_at_shutdown, "cpr_server_parked_failed_at_shutdown_total") \
  X(time_to_first_op_ns, "cpr_server_time_to_first_op_ns")                   \
  X(recovery_duration_ns, "cpr_server_recovery_duration_ns")                 \
  X(read_ops, "cpr_server_read_ops_total")                                   \
  X(write_ops, "cpr_server_write_ops_total")                                 \
  X(slow_reader_throttled, "cpr_server_slow_reader_throttled_total")         \
  X(slow_reader_closed, "cpr_server_slow_reader_closed_total")

namespace cpr::server {

struct ServerCounters {
#define CPR_SERVER_COUNTER_FIELD(field, name) std::atomic<uint64_t> field{0};
  CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_FIELD)
#undef CPR_SERVER_COUNTER_FIELD

  // Execute→durable lag of durable-gated responses: time from enqueueing the
  // executed operation until its covering checkpoint released the ack.
  // Several workers record, so this is a sharded-slot histogram: a record is
  // three relaxed RMWs on the caller's slot, no mutex on the ack path.
  void RecordDurableLag(uint64_t ns) { durable_lag_.Record(ns); }

  // A plain copy for reporting; durable_lag.max is the largest lag seen.
  struct Snapshot {
#define CPR_SERVER_COUNTER_VALUE(field, name) uint64_t field = 0;
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_VALUE)
#undef CPR_SERVER_COUNTER_VALUE
    obs::HistogramData durable_lag;
  };

  Snapshot Sample() const {
    Snapshot s;
#define CPR_SERVER_COUNTER_LOAD(field, name) \
  s.field = field.load(std::memory_order_relaxed);
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_LOAD)
#undef CPR_SERVER_COUNTER_LOAD
    s.durable_lag = durable_lag_.Sample();
    return s;
  }

  // Registry collector body: every counter under its STATS name, plus the
  // durable-lag p50/p99/max.
  void Emit(const obs::MetricsRegistry::EmitFn& emit) const {
    const Snapshot s = Sample();
#define CPR_SERVER_COUNTER_EMIT(field, name) \
  emit(name, static_cast<double>(s.field));
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_EMIT)
#undef CPR_SERVER_COUNTER_EMIT
    emit("cpr_server_durable_lag_p50_ns",
         static_cast<double>(s.durable_lag.Quantile(0.5)));
    emit("cpr_server_durable_lag_p99_ns",
         static_cast<double>(s.durable_lag.Quantile(0.99)));
    emit("cpr_server_durable_lag_max_ns",
         static_cast<double>(s.durable_lag.max));
  }

 private:
  obs::HistogramMetric durable_lag_;
};

}  // namespace cpr::server

#endif  // CPR_SERVER_COUNTERS_H_
