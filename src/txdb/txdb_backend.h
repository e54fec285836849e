#ifndef CPR_TXDB_TXDB_BACKEND_H_
#define CPR_TXDB_TXDB_BACKEND_H_

// kv::Backend over the transactional database: KvServer serves either
// engine unchanged, and TXN requests reach TransactionalDb::Execute as
// multi-key transactions.
//
// Session mapping: each kv::Session binds 1:1 to a registered txdb
// ThreadContext. Contexts are driven through the epoch slot-handle API, so
// the server's event-loop workers refresh them from their connection ticks
// exactly as they refresh FasterKv sessions (Backend::Refresh ->
// TransactionalDb::Refresh). A stopped session's context is parked, not
// destroyed: its guid and serial keep appearing in later checkpoints'
// commit points, so a client resuming after a crash still recovers its
// prefix. A background pump context keeps epoch progress alive when no
// session is connected (commits would otherwise stall forever).
//
// Durability: Checkpoint() maps to TransactionalDb::RequestCommit and the
// per-session commit points arrive via the commit callback; a Checkpoint()
// issued while a commit is in flight coalesces onto it (both callers get
// the same token, and therefore observe the same durable version) instead
// of failing with "busy".
//
// KV surface: single-key ops address table 0 directly — key K maps to row
// K % rows. Rows always exist (zero-filled), so Read never reports
// kNotFound and Delete zero-fills. Rmw adds into the first 8 bytes.
// NO-WAIT conflicts on this path are retried internally so every op
// consumes exactly one serial, keeping the client's replay contract.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "durability/provider.h"
#include "durability/switch.h"
#include "obs/metrics.h"
#include "shard/backend.h"
#include "txdb/db.h"

namespace cpr::txdb {

struct CheckpointMeta;

// Translation between the wire/disk-visible provider kind and the engine
// selector (kNone has no provider representation and is never served).
durability::ProviderKind ModeToProviderKind(DurabilityMode mode);
DurabilityMode ProviderKindToMode(durability::ProviderKind kind);

class TxDbBackend final : public kv::Backend, private durability::SwitchHost {
 public:
  struct TableSpec {
    uint64_t rows = 1 << 16;
    uint32_t value_size = 8;
  };

  struct Options {
    TransactionalDb::Options db;  // mode defaults to kCpr below
    // Tables created at construction; table 0 also serves the single-key KV
    // surface. At least one entry.
    std::vector<TableSpec> tables{TableSpec{}};
    Options() {
      db.mode = DurabilityMode::kCpr;
      // The served database is always switchable: a provider manifest in
      // the durability dir (ours or a predecessor's) must be honorable.
      db.allow_switch = true;
    }
  };

  explicit TxDbBackend(Options options);
  ~TxDbBackend() override;

  TxDbBackend(const TxDbBackend&) = delete;
  TxDbBackend& operator=(const TxDbBackend&) = delete;

  kv::Session* StartSession(uint64_t guid) override;
  void StopSession(kv::Session* session) override;
  Status DurableCommitPoint(uint64_t guid, uint64_t* serial) const override;

  uint64_t LastCheckpointToken() const override;
  uint64_t LastFinishedToken() const override;
  uint64_t CheckpointFailures() const override;

  faster::OpStatus Read(kv::Session& session, uint64_t key,
                        void* value_out) override;
  faster::OpStatus Upsert(kv::Session& session, uint64_t key,
                          const void* value) override;
  faster::OpStatus Rmw(kv::Session& session, uint64_t key,
                       int64_t delta) override;
  faster::OpStatus Delete(kv::Session& session, uint64_t key) override;
  void Refresh(kv::Session& session) override;
  size_t CompletePending(kv::Session& session,
                         bool wait_for_all = false) override;

  kv::TxnStatus Txn(kv::Session& session, const std::vector<kv::TxnOp>& ops,
                    std::vector<std::vector<char>>* reads) override;

  // Scans live row values directly (taking each record latch briefly so a
  // value is never torn). Only meaningful on a quiesced backend; used by the
  // crash-consistency certifier to capture recovered state.
  Status Dump(uint32_t table, uint64_t start_row, uint32_t max_rows,
              uint32_t max_bytes, uint32_t* value_size, uint64_t* rows_total,
              uint64_t* next_row, std::vector<kv::DumpRow>* rows) override;

  // variant/include_index are FasterKv notions; the CPR commit has one
  // flavor and ignores both.
  bool Checkpoint(faster::CommitVariant variant, bool include_index,
                  uint64_t* token_out) override;
  bool CheckpointInProgress() const override;
  Status WaitForCheckpoint(uint64_t token) override;
  Status Recover() override;

  // -- Durability provider (the adaptive-durability seam) ----------------
  durability::ProviderKind Provider() const override;
  // Full live switch: quiesce at the checkpoint boundary, boundary
  // checkpoint under the old provider, manifest flip, engine swap. Blocks
  // until done — call from a thread that is NOT also responsible for
  // refreshing sessions (a server worker must use RequestProviderSwitch).
  Status SwitchProvider(durability::ProviderKind target) override;
  // Queues the switch onto the backend's switch thread and returns
  // immediately; a pending request to a different target is superseded.
  bool RequestProviderSwitch(durability::ProviderKind target) override;
  bool ProviderSwitchPending() const override;
  uint64_t ProviderSwitches() const override;
  uint64_t ProviderLastBoundary() const override;

  uint32_t value_size() const override { return table0_value_size_; }

  TransactionalDb& db() { return db_; }

 private:
  class SessionAdapter;

  // RAII op-admission ticket (see EnterOp/ExitOp).
  struct OpGuard {
    explicit OpGuard(TxDbBackend& b) : backend(b) { backend.EnterOp(); }
    ~OpGuard() { backend.ExitOp(); }
    TxDbBackend& backend;
  };

  struct Round {
    uint64_t version = 0;
    bool finished = false;
    Status status;
  };

  static ThreadContext& Ctx(kv::Session& session);

  // Executes until committed, retrying NO-WAIT conflicts and CPR shifts —
  // the single-op KV path must consume exactly one serial per call.
  void ExecuteCommitted(ThreadContext& ctx, const Transaction& txn);

  void OnCommitDone(uint64_t version, const Status& status,
                    const std::vector<CommitPoint>& points);
  void PumpLoop();
  void SwitchLoop();

  // Operation admission gate. Every serial-consuming operation (KV ops,
  // TXN, Checkpoint) holds a ticket; PauseOps() blocks new tickets and
  // drains the holders. Refresh/CompletePending/sessions are NOT gated —
  // epoch progress must continue through a quiesce or the pre-pause
  // commit-wait could never conclude. Fast path: two uncontended RMWs.
  void EnterOp();
  void ExitOp();

  // durability::SwitchHost (called only from SwitchController::Switch,
  // which serializes switches).
  durability::ProviderKind CurrentProvider() const override;
  void WaitForInflightCommit() override;
  bool CommitInFlight() const override;
  void PauseOps() override;
  void ResumeOps() override;
  Status WriteBoundaryCheckpoint(uint64_t* version_out) override;
  Status PrepareProvider(durability::ProviderKind target) override;
  Status PublishManifest(const durability::ProviderManifest& manifest) override;
  void ActivateProvider(durability::ProviderKind target,
                        uint64_t seed_version) override;

  // Captures a full image of every table into meta->table_schemas /
  // meta->data_bytes / *data. Only sound on a quiesced database.
  void CaptureFullImage(CheckpointMeta* meta, std::vector<char>* data);
  // Folds recovered commit points into durable_points_ / next_guid_.
  void MergePoints(const std::vector<CommitPoint>& points);
  // Recovery when the manifest names WAL: base image + log replay, then
  // re-base (fold into a fresh checkpoint, truncate the log).
  Status RecoverWal(const durability::ProviderManifest& m);

  Options options_;
  uint64_t table0_rows_ = 0;
  uint32_t table0_value_size_ = 0;
  std::vector<char> zero_value_;  // Delete writes this

  mutable std::mutex mu_;
  std::condition_variable ckpt_cv_;
  std::vector<std::unique_ptr<SessionAdapter>> sessions_;  // live only
  std::unordered_map<uint64_t, uint64_t> durable_points_;  // guid -> serial
  uint64_t next_guid_ = 1;
  uint64_t next_token_ = 0;
  uint64_t pending_token_ = 0;    // 0: no commit in flight via this backend
  uint64_t pending_version_ = 0;  // db version of the pending round
  uint64_t last_checkpoint_token_ = 0;
  uint64_t last_finished_token_ = 0;
  uint64_t checkpoint_failures_ = 0;
  std::map<uint64_t, Round> rounds_;  // token -> outcome, trimmed

  // Housekeeping context + thread: guarantees epoch progress (and therefore
  // commit progress) even with zero connected sessions.
  ThreadContext* pump_ctx_ = nullptr;
  std::atomic<bool> stop_pump_{false};
  std::thread pump_thread_;

  // Op-admission gate state.
  std::atomic<bool> ops_paused_{false};
  std::atomic<uint32_t> active_ops_{0};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;

  // Provider switching: controller (owns the protocol + counters) and the
  // async request thread serving RequestProviderSwitch.
  std::unique_ptr<durability::SwitchController> switch_;
  mutable std::mutex swreq_mu_;
  std::condition_variable swreq_cv_;
  bool swreq_pending_ = false;               // guarded by swreq_mu_
  durability::ProviderKind swreq_target_ = durability::ProviderKind::kCpr;
  bool stop_switch_ = false;                 // guarded by swreq_mu_
  Status last_switch_status_;                // guarded by swreq_mu_
  std::thread switch_thread_;
  uint64_t provider_collector_id_ = 0;

  // Time inside db_.Execute (incl. conflict/CPR-shift retries) per committed
  // or conflicted transaction — the engine sub-stage of the server's
  // "execute" stage (cpr_txdb_txn_execute_ns in the default registry).
  obs::HistogramMetric* txn_execute_ns_ = nullptr;

  // Declared last so it is destroyed first: ~TransactionalDb joins the CPR
  // engine's checkpoint thread, and that thread's commit callback writes
  // rounds_ / durable_points_ under mu_. With db_ dying before those members
  // the callback can never run against freed state, even if a commit is
  // still in flight when the backend is torn down.
  TransactionalDb db_;
};

}  // namespace cpr::txdb

#endif  // CPR_TXDB_TXDB_BACKEND_H_
