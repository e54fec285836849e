#ifndef CPR_SHARD_BACKEND_H_
#define CPR_SHARD_BACKEND_H_

// The session-store surface the serving layer (src/server) consumes,
// abstracted away from one concrete store. Two implementations:
//
//   * ShardedKv (sharded_kv.h): hash-partitions the keyspace over N
//     independent FasterKv instances with coordinated cross-shard CPR
//     checkpoints behind one global commit point. A single FasterKv store
//     is a one-shard ShardedKv.
//   * TxDbBackend (txdb/txdb_backend.h): a TransactionalDb served by row,
//     with multi-key transactions and live durability-provider switching.
//
// The interface reuses the engine's operation types (OpStatus, AsyncResult,
// CommitVariant): the contract is identical to FasterKv's, just narrowed to
// what a serving layer needs. "Token" means whatever monotonic durability
// counter the backend exposes — a coordinated-round number for ShardedKv,
// a commit token for TxDbBackend; the server only ever compares them for
// ordering.

#include <cstdint>
#include <functional>
#include <vector>

#include "durability/provider.h"
#include "faster/checkpoint_state.h"
#include "faster/faster.h"
#include "util/status.h"

namespace cpr::kv {

// One operation of a multi-key transaction (Backend::Txn). Mirrors the wire
// TXN op without depending on net:: types (the server converts).
struct TxnOp {
  enum class Kind : uint8_t { kRead = 0, kWrite = 1, kAdd = 2 };
  Kind kind = Kind::kRead;
  uint32_t table = 0;
  uint64_t row = 0;
  std::vector<char> value;  // kWrite payload (must match the table's size)
  int64_t delta = 0;        // kAdd
};

// One live row returned by Backend::Dump.
struct DumpRow {
  uint64_t row = 0;
  std::vector<char> value;
};

enum class TxnStatus : uint8_t {
  kCommitted = 0,
  kConflict,     // NO-WAIT lock conflict: nothing applied, retryable
  kBadRequest,   // invalid table/row/value size: nothing applied
  kUnsupported,  // backend has no transactional engine
};

// One client session: operations carry session-local serial numbers and the
// backend reports a per-session durable commit point. One session binds to
// one thread at a time (it may migrate between refreshes, which is how the
// server drains a closed connection's pending operations).
class Session {
 public:
  virtual ~Session() = default;

  virtual uint64_t guid() const = 0;
  // Serial of the most recently issued operation.
  virtual uint64_t serial() const = 0;
  // Serial the session resumed at: its final serial when it stopped in
  // this process, its recovered commit point after recovery, 0 when fresh.
  virtual uint64_t last_commit_point() const = 0;
  // Operations parked for asynchronous completion.
  virtual size_t pending_count() const = 0;
  // Invoked from CompletePending for each asynchronously completed op.
  virtual void set_async_callback(
      std::function<void(const faster::AsyncResult&)> cb) = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // -- Sessions ----------------------------------------------------------
  // guid 0 draws a fresh id. A guid whose session stopped in this process
  // resumes at its final serial; a recovered guid resumes at its recovered
  // commit point (Session::last_commit_point() reports either). Returns
  // nullptr when the backend is out of session slots.
  virtual Session* StartSession(uint64_t guid) = 0;
  // Completes the session's pending operations and frees its slot. The
  // backend keeps the guid's final serial: the durability rounds that follow
  // cover it, and StartSession(guid) resumes at it.
  virtual void StopSession(Session* session) = 0;
  // Every operation with serial <= the returned value is covered by the
  // backend's durable commit point for `guid` (kNotFound until one exists).
  virtual Status DurableCommitPoint(uint64_t guid, uint64_t* serial) const = 0;

  // -- Durability counters ----------------------------------------------
  // Monotonic token of the most recent *successful* durability event.
  virtual uint64_t LastCheckpointToken() const = 0;
  // Token of the most recent *concluded* attempt, successful or failed.
  virtual uint64_t LastFinishedToken() const = 0;
  // Count of attempts that failed persistently (graceful degradation).
  virtual uint64_t CheckpointFailures() const = 0;

  // -- Operations --------------------------------------------------------
  virtual faster::OpStatus Read(Session& session, uint64_t key,
                                void* value_out) = 0;
  virtual faster::OpStatus Upsert(Session& session, uint64_t key,
                                  const void* value) = 0;
  virtual faster::OpStatus Rmw(Session& session, uint64_t key,
                               int64_t delta) = 0;
  virtual faster::OpStatus Delete(Session& session, uint64_t key) = 0;
  virtual void Refresh(Session& session) = 0;
  virtual size_t CompletePending(Session& session,
                                 bool wait_for_all = false) = 0;

  // Executes a multi-key transaction atomically (strict 2PL, NO-WAIT).
  // On kCommitted, `reads` (if non-null) receives one value per kRead op in
  // op order. On any other status nothing was applied. The transaction
  // consumes exactly one session serial whether it commits or conflicts, so
  // client-side replay regenerates identical serials. Backends without a
  // transactional engine answer kUnsupported.
  virtual TxnStatus Txn(Session& session, const std::vector<TxnOp>& ops,
                        std::vector<std::vector<char>>* reads) {
    (void)session;
    (void)ops;
    (void)reads;
    return TxnStatus::kUnsupported;
  }

  // Scans `table` from `start_row`, appending up to `max_rows` live non-zero
  // rows to `rows` while their encoded size (8-byte row id + value) stays
  // within `max_bytes`. Reports the table's value size and total row count,
  // and sets `next_row` to the resume cursor (0 once the table is
  // exhausted). NotFound for a table id out of range (lets callers probe to
  // enumerate tables); InvalidArgument when the backend cannot dump. Only
  // meaningful on a quiesced backend — concurrent writers make the scan a
  // fuzzy snapshot.
  virtual Status Dump(uint32_t table, uint64_t start_row, uint32_t max_rows,
                      uint32_t max_bytes, uint32_t* value_size,
                      uint64_t* rows_total, uint64_t* next_row,
                      std::vector<DumpRow>* rows) {
    (void)table;
    (void)start_row;
    (void)max_rows;
    (void)max_bytes;
    (void)value_size;
    (void)rows_total;
    (void)next_row;
    (void)rows;
    return Status::InvalidArgument("backend has no dump support");
  }

  // -- Checkpoints / recovery -------------------------------------------
  // Starts an asynchronous durability round; false if one is in flight.
  virtual bool Checkpoint(faster::CommitVariant variant, bool include_index,
                          uint64_t* token_out = nullptr) = 0;
  virtual bool CheckpointInProgress() const = 0;
  // Blocks until the round named by `token` concludes; Ok iff it succeeded.
  // Safe from an unregistered thread, but some session must keep refreshing.
  virtual Status WaitForCheckpoint(uint64_t token) = 0;
  // Rebuilds from the newest complete durable state. Before any sessions.
  virtual Status Recover() = 0;

  // -- Instant restart (incremental readiness) ---------------------------
  // Begins recovery but returns as soon as the commit point is pinned:
  // session bookkeeping (guids, recovered serials, durable commit points)
  // is installed synchronously, while shard data restores proceed in the
  // background. Sessions may start and operations may be issued immediately
  // — but only against shards whose ShardReady(i) is already true. kNotFound
  // when there is no durable state to recover (the store starts empty and
  // every shard is immediately ready). Backends without incremental
  // recovery fall back to the blocking Recover().
  virtual Status StartRecovery() { return Recover(); }
  // True while a StartRecovery() is still restoring shards in the
  // background. Operations must not reach a not-ready shard, and no new
  // checkpoint can start, until this turns false.
  virtual bool Recovering() const { return false; }
  // Per-shard readiness during background recovery. Shards outside
  // [0, num_shards) and backends that never recover incrementally are
  // always ready.
  virtual bool ShardReady(uint32_t shard) const {
    (void)shard;
    return true;
  }
  // Which shard serves `key` — the serving layer's routing oracle for
  // readiness checks. Single-store backends map everything to shard 0.
  virtual uint32_t ShardOfKey(uint64_t key) const {
    (void)key;
    return 0;
  }
  // Hints the background restore to reorder `shard` to the front of its
  // work queue (demand-driven restore: a parked op names the shard a
  // client actually needs). Best-effort; no-op when not recovering.
  virtual void PrioritizeShard(uint32_t shard) { (void)shard; }
  // Blocks until the background recovery concludes; Ok iff every shard
  // restored. Ok immediately when no StartRecovery() is in flight.
  virtual Status WaitForRecovery() { return Status::Ok(); }
  // Consumes one session serial without performing any operation, returning
  // the serial consumed (0 when unsupported). The serving layer burns a
  // serial for each op it rejects with a retryable RECOVERING status, so
  // the client's predicted serial stream stays aligned with the backend's.
  virtual uint64_t SkipSerial(Session& session) {
    (void)session;
    return 0;
  }

  // -- Durability provider (adaptive durability) -------------------------
  // Which durability scheme currently backs the store. FasterKv-based
  // backends are CPR by construction; the transactional backend serves any
  // of CPR / CALC / WAL and can switch between them live.
  virtual durability::ProviderKind Provider() const {
    return durability::ProviderKind::kCpr;
  }
  // Synchronously switches the store to `target` at a checkpoint boundary.
  // Blocks through the quiesce; must not be called from a thread that is
  // also responsible for refreshing sessions.
  virtual Status SwitchProvider(durability::ProviderKind target) {
    (void)target;
    return Status::InvalidArgument("backend cannot switch providers");
  }
  // Queues a switch and returns immediately; false when unsupported.
  virtual bool RequestProviderSwitch(durability::ProviderKind target) {
    (void)target;
    return false;
  }
  virtual bool ProviderSwitchPending() const { return false; }
  // Completed live switches since construction.
  virtual uint64_t ProviderSwitches() const { return 0; }
  // Boundary-checkpoint version of the last completed switch (0: none).
  virtual uint64_t ProviderLastBoundary() const { return 0; }

  // -- Introspection -----------------------------------------------------
  virtual uint32_t value_size() const = 0;
  virtual uint32_t num_shards() const { return 1; }
  // Operations routed to shard `i` so far (skew visibility); 0 if untracked.
  virtual uint64_t ShardOpCount(uint32_t shard) const {
    (void)shard;
    return 0;
  }
};

}  // namespace cpr::kv

#endif  // CPR_SHARD_BACKEND_H_
