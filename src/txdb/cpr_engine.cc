#include "txdb/cpr_engine.h"

#include <cstring>

#include "obs/trace.h"
#include "txdb/checkpoint_io.h"

namespace cpr::txdb {

namespace {

obs::Counter* PhaseNs(const char* phase) {
  return obs::MetricsRegistry::Default().GetCounter(
      std::string("cpr_txdb_commit_phase_ns_total{phase=\"") + phase + "\"}");
}

}  // namespace

CprEngine::CprEngine(TransactionalDb& db)
    : Engine(db),
      state_(Pack(DbPhase::kRest, 1)),
      phase_prepare_ns_(PhaseNs("prepare")),
      phase_in_progress_ns_(PhaseNs("in_progress")),
      phase_wait_flush_ns_(PhaseNs("wait_flush")),
      commits_started_total_(obs::MetricsRegistry::Default().GetCounter(
          "cpr_txdb_commits_started_total")),
      commit_failures_total_(obs::MetricsRegistry::Default().GetCounter(
          "cpr_txdb_commit_failures_total")) {
  checkpoint_thread_ = std::thread([this] { CheckpointThreadLoop(); });
}

void CprEngine::ClosePhaseSpan(const char* phase_name,
                               obs::Counter* phase_ns) {
  const uint64_t now = NowNanos();
  const uint64_t start =
      phase_start_ns_.exchange(now, std::memory_order_relaxed);
  if (start == 0 || now <= start) return;
  phase_ns->Add(now - start);
  obs::Tracer::Default().Record(
      "txdb", phase_name, start, now,
      VersionOf(state_.load(std::memory_order_acquire)));
}

CprEngine::~CprEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  capture_cv_.notify_all();
  checkpoint_thread_.join();
}

TxnResult CprEngine::Execute(ThreadContext& ctx, const Transaction& txn) {
  const uint64_t start = NowNanos();
  if (!AcquireLocks(txn, ctx)) {
    ctx.counters.abort_ns += NowNanos() - start;
    ctx.counters.aborted_txns += 1;
    return TxnResult::kAbortedConflict;
  }

  const DbPhase phase = ctx.phase;
  const uint64_t v = ctx.version;
  if (phase == DbPhase::kPrepare) {
    // A (v+1) record means the version shift began: this transaction cannot
    // belong to the v commit without reading uncommitted-snapshot state.
    for (const LockedRecord& lr : ctx.locked) {
      if (lr.table->header(lr.row).version.load(std::memory_order_acquire) >
          v) {
        ReleaseLocks(ctx);
        ctx.counters.abort_ns += NowNanos() - start;
        ctx.counters.aborted_txns += 1;
        ctx.counters.cpr_aborts += 1;
        // Refresh immediately: the thread advances to in-progress, so at
        // most one transaction per thread aborts this way per commit.
        db_.Refresh(ctx);
        return TxnResult::kAbortedCprShift;
      }
    }
  } else if (phase == DbPhase::kInProgress || phase == DbPhase::kWaitFlush) {
    // This transaction belongs to version v+1. Preserve the version-v value
    // of every record it touches before mutating it.
    for (const LockedRecord& lr : ctx.locked) {
      RecordHeader& h = lr.table->header(lr.row);
      if (h.version.load(std::memory_order_acquire) < v + 1) {
        lr.table->PreserveStable(lr.row);
        h.version.store(static_cast<uint32_t>(v + 1),
                        std::memory_order_release);
      }
    }
  }

  ApplyOps(txn, ctx);
  ReleaseLocks(ctx);
  ctx.serial.fetch_add(1, std::memory_order_release);
  ctx.counters.exec_ns += NowNanos() - start;
  ctx.counters.committed_txns += 1;
  return TxnResult::kCommitted;
}

void CprEngine::OnRefresh(ThreadContext& ctx) {
  const uint64_t s = state_.load(std::memory_order_acquire);
  const DbPhase phase = PhaseOf(s);
  const uint64_t version = VersionOf(s);
  if (ctx.phase == DbPhase::kPrepare &&
      (phase != DbPhase::kPrepare || version != ctx.version)) {
    // Leaving prepare demarcates this thread's CPR point: everything
    // committed so far is in the v commit, nothing after.
    ctx.cpr_point_serial.store(ctx.serial.load(std::memory_order_relaxed),
                               std::memory_order_release);
  }
  ctx.phase = phase;
  ctx.version = version;
}

uint64_t CprEngine::RequestCommit(CommitCallback callback) {
  uint64_t expected = state_.load(std::memory_order_acquire);
  if (PhaseOf(expected) != DbPhase::kRest) return 0;  // commit in flight
  const uint64_t v = VersionOf(expected);
  if (!state_.compare_exchange_strong(expected, Pack(DbPhase::kPrepare, v),
                                      std::memory_order_acq_rel)) {
    return 0;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    callback_ = std::move(callback);
  }
  phase_start_ns_.store(NowNanos(), std::memory_order_relaxed);
  commits_started_total_->Add(1);
  db_.epoch().BumpEpoch([this] { PrepareToInProg(); });
  return v;
}

void CprEngine::PrepareToInProg() {
  const uint64_t v = VersionOf(state_.load(std::memory_order_acquire));
  ClosePhaseSpan("prepare", phase_prepare_ns_);
  state_.store(Pack(DbPhase::kInProgress, v), std::memory_order_release);
  db_.epoch().BumpEpoch([this] { InProgToWaitFlush(); });
}

void CprEngine::InProgToWaitFlush() {
  const uint64_t v = VersionOf(state_.load(std::memory_order_acquire));
  ClosePhaseSpan("in_progress", phase_in_progress_ns_);
  state_.store(Pack(DbPhase::kWaitFlush, v), std::memory_order_release);
  // Hand the capture to the background thread; workers keep processing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    capture_version_ = v;
  }
  capture_cv_.notify_one();
}

void CprEngine::CheckpointThreadLoop() {
  while (true) {
    uint64_t v = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      capture_cv_.wait(lock, [this] { return stop_ || capture_version_ != 0; });
      if (stop_) return;
      v = capture_version_;
      capture_version_ = 0;
    }
    CaptureAndPersist(v);
  }
}

void CprEngine::CaptureAndPersist(uint64_t v) {
  obs::ScopedSpan capture_span(obs::Tracer::Default(), "txdb",
                               "capture_persist", v);
  Storage& storage = db_.storage();
  CheckpointMeta meta;
  meta.version = v;

  // Collect the CPR points before capturing: every active thread recorded
  // its point when it left prepare, which happened before wait-flush began.
  // A parked (deregistered) context issues no more transactions, so its
  // point is its final serial — except when it parked during this very
  // commit's in-progress/wait-flush window, where its post-point
  // transactions belong to v+1 and the recorded point stands.
  for (const auto& ctx : db_.contexts()) {
    if (ctx == nullptr) continue;
    uint64_t point;
    if (ctx->active.load(std::memory_order_acquire)) {
      point = ctx->cpr_point_serial.load(std::memory_order_acquire);
    } else if (ctx->parked_version == v &&
               (ctx->parked_phase == DbPhase::kInProgress ||
                ctx->parked_phase == DbPhase::kWaitFlush)) {
      point = ctx->cpr_point_serial.load(std::memory_order_acquire);
    } else {
      point = ctx->serial.load(std::memory_order_acquire);
    }
    meta.points.push_back(CommitPoint{ctx->thread_id, point, ctx->guid});
  }

  uint64_t total = 0;
  for (uint32_t t = 0; t < storage.num_tables(); ++t) {
    const Table& table = storage.table(t);
    meta.table_schemas.emplace_back(table.rows(), table.value_size());
    total += table.rows() * table.value_size();
  }
  // Delta captures record only the rows dirtied since the last commit; a
  // full capture every Nth commit bounds the chain length (§4.1).
  const bool delta = db_.options().incremental_checkpoints && v > 1 &&
                     (v - 1) % db_.options().full_checkpoint_every != 0;
  meta.is_delta = delta;
  std::vector<char> data;
  if (!delta) data.reserve(total);

  for (uint32_t t = 0; t < storage.num_tables(); ++t) {
    Table& table = storage.table(t);
    const uint32_t vsize = table.value_size();
    for (uint64_t row = 0; row < table.rows(); ++row) {
      RecordHeader& h = table.header(row);
      // Brief record latch: an atomic read of (version, value). Worker
      // critical sections are short, so this never waits long.
      h.latch.Lock();
      const bool bumped =
          h.version.load(std::memory_order_acquire) == v + 1;
      const bool dirty = h.dirty.load(std::memory_order_relaxed) != 0;
      if (!delta || dirty) {
        if (delta) {
          const char* tp = reinterpret_cast<const char*>(&t);
          data.insert(data.end(), tp, tp + sizeof(t));
          const char* rp = reinterpret_cast<const char*>(&row);
          data.insert(data.end(), rp, rp + sizeof(row));
        }
        const char* src = bumped
                              ? static_cast<const char*>(table.stable(row))
                              : static_cast<const char*>(table.live(row));
        data.insert(data.end(), src, src + vsize);
      }
      // A bumped record carries a live (v+1) value the NEXT commit must
      // capture; only clear the dirty flag once the captured value is the
      // final one.
      if (!bumped) h.dirty.store(0, std::memory_order_relaxed);
      h.latch.Unlock();
    }
  }

  const TransactionalDb::Options& opts = db_.options();
  const Status s = WriteCheckpointWithRetry(
      opts.durability_dir, meta, data, opts.sync_to_disk,
      opts.checkpoint_retry_attempts, opts.checkpoint_retry_backoff_ms);
  if (s.ok()) {
    RetainCheckpoints(opts.durability_dir, opts.retain_checkpoints);
  }
  // A persistently failed write leaves the previous commit as the durable
  // one; record the failure so WaitForCommit returns an error rather than
  // hanging.
  CommitCallback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) last_durable_version_ = v;
    last_checkpoint_status_ = s;
    cb = std::move(callback_);
    callback_ = nullptr;
  }
  if (!s.ok()) commit_failures_total_->Add(1);
  ClosePhaseSpan("wait_flush", phase_wait_flush_ns_);
  phase_start_ns_.store(0, std::memory_order_relaxed);  // round over
  // Conclude the commit: back to rest at version v+1.
  state_.store(Pack(DbPhase::kRest, v + 1), std::memory_order_release);
  // The callback fires on failure too: a durable-ack serving layer must
  // learn the commit concluded without durability, or it would gate
  // responses on a version that never arrives.
  if (cb) cb(v, s, meta.points);
  // Waiters wake after the callback: WaitForCommit returning means the
  // callback has run. Commits conclude one at a time on this thread, so the
  // finished version still only moves forward.
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_finished_version_ = v;
  }
  durable_cv_.notify_all();
}

Status CprEngine::WaitForCommit(uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  // The prepare and in-progress phases only advance when every registered
  // thread refreshes (epoch trigger actions). Waiting while nobody can
  // refresh — zero registered contexts, or a registered pool that stalled —
  // used to hang forever; detect no-progress and surface it instead.
  uint64_t seen_finished = last_finished_version_;
  uint64_t seen_safe = db_.epoch().safe_epoch();
  int stalled_windows = 0;
  while (last_finished_version_ < version) {
    durable_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (last_finished_version_ >= version) break;
    const DbPhase phase = PhaseOf(state_.load(std::memory_order_acquire));
    const uint64_t safe = db_.epoch().safe_epoch();
    const bool waiting_on_refresh =
        phase == DbPhase::kPrepare || phase == DbPhase::kInProgress;
    const bool progressed =
        last_finished_version_ != seen_finished || safe != seen_safe;
    seen_finished = last_finished_version_;
    seen_safe = safe;
    if (!waiting_on_refresh || progressed) {
      stalled_windows = 0;
      continue;
    }
    if (db_.epoch().ProtectedThreadCount() == 0) {
      return Status::Aborted(
          "commit v" + std::to_string(version) +
          " cannot progress: no registered thread is refreshing");
    }
    // ~2s of phase-stuck, epoch-stalled windows: the registered pool exists
    // but nobody is refreshing.
    if (++stalled_windows >= 40) {
      return Status::Aborted(
          "commit v" + std::to_string(version) +
          " stalled: registered threads stopped refreshing (safe epoch "
          "frozen at " + std::to_string(safe) + ")");
    }
  }
  if (last_durable_version_ >= version) return Status::Ok();
  return Status::IoError("checkpoint v" + std::to_string(version) +
                         " failed: " + last_checkpoint_status_.message());
}

bool CprEngine::CommitInProgress() const {
  return PhaseOf(state_.load(std::memory_order_acquire)) != DbPhase::kRest;
}

uint64_t CprEngine::CurrentVersion() const {
  return VersionOf(state_.load(std::memory_order_acquire));
}

Status CprEngine::Recover(std::vector<CommitPoint>* points) {
  const std::string& dir = db_.options().durability_dir;
  std::vector<uint64_t> candidates;
  Status s = ListRecoveryCandidates(dir, &candidates);
  if (!s.ok()) return s;
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint published in " + dir);
  }

  Storage& storage = db_.storage();
  // Try each generation newest-first: a candidate only commits to recovered
  // state if its entire delta chain reads and verifies. A failed attempt is
  // retry-safe because every chain replays from a full base that overwrites
  // all rows.
  Status last = Status::Corruption("no valid checkpoint generation in " + dir);
  for (uint64_t candidate : candidates) {
    CheckpointMeta meta;
    std::vector<char> data;
    s = ReadCheckpointAt(dir, candidate, &meta, &data);
    if (!s.ok()) {
      last = s;
      continue;
    }
    // Walk any delta chain back to its full base.
    std::vector<uint64_t> chain;  // versions, newest first
    CheckpointMeta walk = meta;
    bool chain_ok = true;
    while (walk.is_delta) {
      chain.push_back(walk.version);
      if (walk.version <= 1) {
        last = Status::Corruption("delta chain broken at v" +
                                  std::to_string(walk.version));
        chain_ok = false;
        break;
      }
      s = ReadCheckpointMeta(dir, walk.version - 1, &walk);
      if (!s.ok()) {
        last = s;
        chain_ok = false;
        break;
      }
    }
    if (!chain_ok) continue;
    chain.push_back(walk.version);  // the full base

    bool applied = true;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      CheckpointMeta m;
      std::vector<char> d;
      s = ReadCheckpointAt(dir, *it, &m, &d);
      if (s.ok()) s = ApplyCheckpointData(storage, m, d);
      if (!s.ok()) {
        last = s;
        applied = false;
        break;
      }
    }
    if (!applied) continue;

    state_.store(Pack(DbPhase::kRest, meta.version + 1),
                 std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_durable_version_ = meta.version;
      last_finished_version_ = meta.version;
    }
    *points = meta.points;
    return Status::Ok();
  }
  if (last.code() != Status::Code::kCorruption) return last;
  return Status::Corruption("no valid checkpoint generation in " + dir +
                            " (last error: " + last.message() + ")");
}

}  // namespace cpr::txdb
