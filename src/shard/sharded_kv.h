#ifndef CPR_SHARD_SHARDED_KV_H_
#define CPR_SHARD_SHARDED_KV_H_

// ShardedKv: hash-partitions the keyspace over N independent FasterKv
// instances (each with its own directory, epoch table and checkpoint
// generations) while exposing the single-store kv::Backend surface, so the
// serving layer and wire protocol are unchanged. A single FasterKv store is
// served as a one-shard ShardedKv: one serving path, round-number tokens and
// instant restart whatever the shard count.
//
// Serial spaces. A ShardedKv session owns ONE global serial counter; every
// operation draws the next global serial g and executes on its home shard
// with sub-session serial exactly g (the shard's serial counter is advanced
// to g-1 immediately before the operation). Sub-session serials are
// therefore a strictly increasing subsequence of the global serial space,
// and a per-shard CPR commit point p_i translates directly into the global
// space: every session operation with serial <= p_i that routes to shard i
// is durable. The session's *global* commit point is min_i p_i — the largest
// prefix of the global serial space durable on every shard.
//
// Coordinated checkpoints. Checkpoint() hands the round to a coordinator
// thread which broadcasts an engine checkpoint to every shard, waits for
// all of them, and — only if every shard succeeded — publishes a cross-shard
// manifest (checked blob `manifest.<round>.meta` + LATEST pointer in the
// root directory) naming each shard's token and each session's per-shard and
// global commit points. The manifest IS the global commit point: durable
// acks gate on a published manifest, never on an individual shard
// checkpoint. A shard failing its checkpoint fails the round (the server
// degrades those acks to NOT_DURABLE) without stalling other shards or
// subsequent rounds.
//
// Recovery walks manifests in the chain's recovery order (the one LATEST
// publishes, then the rest newest-first; io/generations.h) and restores
// EVERY shard to the token named by the first manifest whose shards all
// recover — shards that checkpointed past an unpublished manifest are rolled
// back to the global commit point, exactly the cross-client symmetry CPR
// requires. Replayed client operations whose global serial lands at or below
// a shard's recovered point p_i are deduplicated by construction: the
// session skips any operation with serial <= p_i routed to shard i (it is
// provably a replay — fresh post-recovery serials start above the session's
// crash-time serial, which is >= every p_i).
//
// Instant restart. StartRecovery() splits that walk in two. Phase A
// (synchronous, microseconds): pick the newest manifest whose per-shard
// checkpoints pass a structural preflight (FasterKv::ValidateCheckpoint —
// header probes, no payload I/O) and install its session commit points.
// From that moment sessions can start, DurableCommitPoint answers, and the
// serving layer can accept operations for shards that are already ready.
// Phase B (background): a pool of recovery_workers threads restores the
// shards one by one, fronting any shard named by PrioritizeShard (the
// serving layer calls it when a parked operation is waiting on that shard).
// A shard restore that fails (after one retry) walks the whole store back
// to the next older viable manifest — but ONLY if nothing has observed the
// installed commit points yet (no session started, no DurableCommitPoint
// answered); once the store has served anything, a restore failure is
// terminal and the failed shards report not-ready forever. The sync
// Recover() is exactly StartRecovery() + WaitForRecovery(), so the blocking
// path inherits the parallel pool and the full walk-back.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "shard/backend.h"

namespace cpr::kv {

class ShardedKv final : public Backend {
 public:
  struct Options {
    // Template for every shard; `base.dir` is the root directory — shard i
    // lives in `<dir>/shard-<i>`, manifests in `<dir>` itself.
    // `base.retain_checkpoints` is raised to 2*retain_manifests per shard so
    // a retained manifest never references a garbage-collected generation
    // (failed rounds advance shard generations asymmetrically).
    faster::FasterKv::Options base;
    uint32_t num_shards = 4;
    // Cross-shard manifests kept on disk; recovery can walk this far back.
    uint32_t retain_manifests = 3;
    // Worker threads restoring shards during StartRecovery()'s background
    // phase (clamped to [1, num_shards]). More workers shorten full
    // recovery; even one worker gives demand-driven per-shard readiness.
    uint32_t recovery_workers = 2;
  };

  explicit ShardedKv(Options options);
  ~ShardedKv() override;

  ShardedKv(const ShardedKv&) = delete;
  ShardedKv& operator=(const ShardedKv&) = delete;

  // -- kv::Backend --------------------------------------------------------
  Session* StartSession(uint64_t guid) override;
  void StopSession(Session* session) override;
  Status DurableCommitPoint(uint64_t guid, uint64_t* serial) const override;

  // Tokens are coordinated-round numbers (1, 2, ...), monotonic like the
  // engine's timestamp tokens, so the server's gating logic is unchanged.
  uint64_t LastCheckpointToken() const override {
    return last_completed_round_.load(std::memory_order_acquire);
  }
  uint64_t LastFinishedToken() const override {
    return last_finished_round_.load(std::memory_order_acquire);
  }
  uint64_t CheckpointFailures() const override {
    return failures_.load(std::memory_order_acquire);
  }

  faster::OpStatus Read(Session& session, uint64_t key,
                        void* value_out) override;
  faster::OpStatus Upsert(Session& session, uint64_t key,
                          const void* value) override;
  faster::OpStatus Rmw(Session& session, uint64_t key, int64_t delta) override;
  faster::OpStatus Delete(Session& session, uint64_t key) override;
  void Refresh(Session& session) override;
  size_t CompletePending(Session& session, bool wait_for_all = false) override;

  bool Checkpoint(faster::CommitVariant variant, bool include_index,
                  uint64_t* token_out) override;
  bool CheckpointInProgress() const override {
    return round_active_.load(std::memory_order_acquire);
  }
  Status WaitForCheckpoint(uint64_t round) override;
  Status Recover() override;

  Status StartRecovery() override;
  bool Recovering() const override {
    return recovering_.load(std::memory_order_acquire);
  }
  bool ShardReady(uint32_t shard) const override {
    return shard >= num_shards_ ||
           shard_state_[shard].load(std::memory_order_acquire) ==
               static_cast<uint8_t>(ShardRecoveryState::kReady);
  }
  uint32_t ShardOfKey(uint64_t key) const override { return ShardOf(key); }
  void PrioritizeShard(uint32_t shard) override;
  Status WaitForRecovery() override;
  uint64_t SkipSerial(Session& session) override;

  uint32_t value_size() const override;
  uint32_t num_shards() const override { return num_shards_; }
  uint64_t ShardOpCount(uint32_t shard) const override {
    return op_counts_[shard].load(std::memory_order_relaxed);
  }

  // -- Introspection (tests / bench) --------------------------------------
  // Shard a key routes to: high hash bits, so the choice is independent of
  // the in-shard hash-index bucket (which consumes the low bits).
  uint32_t ShardOf(uint64_t key) const;
  faster::FasterKv& shard(uint32_t i) { return *shards_[i]; }
  // Engine-parity helper: the recovered global commit point for `guid`.
  Status ContinueSession(uint64_t guid, uint64_t* recovered_serial) const {
    return DurableCommitPoint(guid, recovered_serial);
  }
  // Per-shard engine tokens named by the newest published manifest (empty
  // before the first successful round).
  std::vector<uint64_t> ManifestShardTokens() const;

 private:
  class ShardSession;

  struct SessionPoints {
    uint64_t global = 0;              // min over shards
    std::vector<uint64_t> per_shard;  // commit point on each shard
  };

  struct Round {
    uint64_t round = 0;
    faster::CommitVariant variant = faster::CommitVariant::kFoldOver;
    bool include_index = false;
  };

  // Per-shard restore progress during StartRecovery()'s background phase.
  // Values are the cpr_shard_recovery_state gauge contract.
  enum class ShardRecoveryState : uint8_t {
    kPending = 0,
    kRecovering = 1,
    kReady = 2,
    kFailed = 3,
  };

  // One recoverable manifest: round, per-shard engine tokens, and the
  // session commit points it names.
  struct RecoveryCandidate {
    uint64_t round = 0;
    std::vector<uint64_t> tokens;
    std::map<uint64_t, SessionPoints> points;
  };

  // Reads and parses manifest `round`; false when it does not verify or
  // names a different round or shard count.
  bool LoadManifest(uint64_t round, RecoveryCandidate* out) const;
  // Every loadable manifest as a candidate, in the chain's recovery order
  // (the published one first, then newest-first).
  std::vector<RecoveryCandidate> CollectRecoveryCandidates();
  // O(1)-per-shard structural preflight of a candidate's checkpoints.
  bool PreflightCandidate(const RecoveryCandidate& candidate);
  // Publishes a candidate's session points / tokens / round counters as the
  // store's recovered state. Caller holds sessions_mu_ when `locked`.
  void InstallCandidate(const RecoveryCandidate& candidate, bool locked);
  // Background-phase driver: restores shards through the worker pool,
  // walking back through rec_candidates_ while nothing has been served.
  void RecoveryMain();
  // One worker-pool pass over rec_queue_; true iff every shard restored.
  bool RunRecoveryAttempt(const std::vector<uint64_t>& tokens,
                          uint64_t round);
  // Blocks until shard i serves (ready, or recovery over) and the session
  // has an engine sub-session there, creating it lazily.
  void EnsureShardServes(ShardSession& s, uint32_t i);
  // Non-blocking flavour for Refresh/CompletePending: creates the engine
  // sub-session iff the shard is already ready; false when it is not.
  bool TryEnsureSub(ShardSession& s, uint32_t i);
  // Every data op: route `key`, draw the next global serial, answer
  // `replayed` without executing when the skip rule marks the op a replay,
  // else run `engine_op(engine, sub_session)` on the home shard with the
  // sub-serial aligned to the global serial.
  template <typename EngineOp>
  faster::OpStatus Dispatch(Session& session, uint64_t key,
                            faster::OpStatus replayed, EngineOp&& engine_op);

  void CoordinatorLoop();
  // Runs one coordinated round end-to-end; returns true iff the manifest
  // was durably published.
  bool RunRound(const Round& round);
  bool BuildAndPublishManifest(uint64_t round,
                               const std::vector<uint64_t>& tokens);
  void GarbageCollectManifests();
  // Pins every retained manifest's per-shard tokens against shard-local
  // checkpoint GC (runs after each publish and after recovery).
  void PinRetainedManifestTokens();

  const Options options_;
  const uint32_t num_shards_;
  const std::string root_dir_;
  std::vector<std::unique_ptr<faster::FasterKv>> shards_;
  std::unique_ptr<std::atomic<uint64_t>[]> op_counts_;

  // Sessions + recovered/published commit points.
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<ShardSession>> sessions_;
  std::set<uint64_t> known_guids_;
  std::map<uint64_t, SessionPoints> points_;  // by guid, newest manifest
  // Sessions stopped in this process, by guid: the final global serial a
  // StartSession(guid) resumes at, and the session's skip rule. Cleared by
  // recovery.
  struct Stopped {
    uint64_t serial = 0;
    std::vector<uint64_t> skip_below;
  };
  std::map<uint64_t, Stopped> stopped_;
  std::vector<uint64_t> manifest_tokens_;     // newest manifest's tokens
  std::atomic<uint64_t> next_guid_{1};

  // Coordinator.
  std::thread coordinator_;
  mutable std::mutex coord_mu_;
  std::condition_variable coord_cv_;   // wakes the coordinator
  std::condition_variable waiter_cv_;  // wakes WaitForCheckpoint callers
  bool stop_ = false;
  bool round_requested_ = false;
  Round requested_round_;
  uint64_t next_round_ = 1;
  // Rounds that finished without publishing a manifest. Success is the
  // common case, so only failures are remembered; when the set is trimmed
  // (pathological persistent-fault runs) failed_floor_ rises so a stale
  // waiter on a forgotten round conservatively reports failure instead of
  // inheriting a later round's success.
  std::set<uint64_t> failed_rounds_;
  uint64_t failed_floor_ = 0;
  std::atomic<bool> round_active_{false};
  std::atomic<uint64_t> last_completed_round_{0};
  std::atomic<uint64_t> last_finished_round_{0};
  std::atomic<uint64_t> failures_{0};

  // Background recovery (instant restart). Lock order: sessions_mu_ before
  // rec_mu_; coord_mu_ is never held together with either.
  std::thread recovery_thread_;
  mutable std::mutex rec_mu_;
  std::condition_variable rec_cv_;  // wakes shard waiters / recovery events
  std::atomic<bool> recovering_{false};
  std::unique_ptr<std::atomic<uint8_t>[]> shard_state_;  // ShardRecoveryState
  std::deque<uint32_t> rec_queue_;       // shards awaiting a worker
  std::vector<RecoveryCandidate> rec_candidates_;  // walk-back stack
  bool rec_abort_ = false;  // destructor: stop draining
  // Commit points observed (session started / DurableCommitPoint answered)
  // → walk-back is no longer allowed. Mutable: DurableCommitPoint is const.
  mutable bool served_since_install_ = false;
  Status rec_status_;                    // outcome of the last StartRecovery

  // Observability: round outcome counters shared through the registry
  // (cpr_shard_*), initialized in the constructor.
  obs::Counter* rounds_total_ = nullptr;
  obs::Counter* rounds_failed_total_ = nullptr;
  obs::HistogramMetric* shard_recovery_ns_ = nullptr;
  uint64_t obs_collector_id_ = 0;
};

}  // namespace cpr::kv

#endif  // CPR_SHARD_SHARDED_KV_H_
