#include "txdb/db.h"

#include <cassert>
#include <cstring>

#include "obs/metrics.h"
#include "txdb/calc_engine.h"
#include "txdb/cpr_engine.h"
#include "txdb/null_engine.h"
#include "txdb/wal_engine.h"

namespace cpr::txdb {

TransactionalDb::TransactionalDb(Options options)
    : options_(std::move(options)),
      epoch_(options_.max_threads + 8),
      storage_(std::make_unique<Storage>(
          /*dual_version=*/options_.allow_switch ||
          options_.mode == DurabilityMode::kCpr ||
          options_.mode == DurabilityMode::kCalc)),
      mode_(options_.mode) {
  contexts_.resize(options_.max_threads);
  active_engine_.store(EngineFor(options_.mode), std::memory_order_release);

  // Absorb the per-thread breakdown counters (and this db's epoch lag) into
  // the unified registry: pull-style, so the transaction hot path records
  // into plain thread-local fields exactly as before.
  static std::atomic<uint64_t> next_db_id{0};
  const std::string db =
      "{db=\"" + std::to_string(next_db_id.fetch_add(1)) + "\"}";
  obs_collector_id_ = obs::MetricsRegistry::Default().AddCollector(
      [this, db](const obs::MetricsRegistry::EmitFn& emit) {
        const BreakdownCounters c = AggregateCounters();
        emit("cpr_txdb_exec_ns_total" + db, static_cast<double>(c.exec_ns));
        emit("cpr_txdb_tail_contention_ns_total" + db,
             static_cast<double>(c.tail_contention_ns));
        emit("cpr_txdb_log_write_ns_total" + db,
             static_cast<double>(c.log_write_ns));
        emit("cpr_txdb_abort_ns_total" + db, static_cast<double>(c.abort_ns));
        emit("cpr_txdb_committed_txns_total" + db,
             static_cast<double>(c.committed_txns));
        emit("cpr_txdb_aborted_txns_total" + db,
             static_cast<double>(c.aborted_txns));
        emit("cpr_txdb_cpr_aborts_total" + db,
             static_cast<double>(c.cpr_aborts));
        const EpochFramework::Metrics m = epoch_.MetricsSample();
        emit("cpr_txdb_epoch_lag" + db,
             static_cast<double>(m.current_epoch - m.safe_epoch));
      });
}

TransactionalDb::~TransactionalDb() {
  obs::MetricsRegistry::Default().RemoveCollector(obs_collector_id_);
}

Engine* TransactionalDb::EngineFor(DurabilityMode mode) {
  const size_t idx = static_cast<size_t>(mode);
  std::lock_guard<std::mutex> lock(engine_mu_);
  if (engines_[idx] == nullptr) {
    switch (mode) {
      case DurabilityMode::kNone:
        engines_[idx] = std::make_unique<NullEngine>(*this);
        break;
      case DurabilityMode::kCpr:
        engines_[idx] = std::make_unique<CprEngine>(*this);
        break;
      case DurabilityMode::kCalc:
        engines_[idx] = std::make_unique<CalcEngine>(*this);
        break;
      case DurabilityMode::kWal:
        engines_[idx] = std::make_unique<WalEngine>(*this);
        break;
    }
  }
  return engines_[idx].get();
}

Status TransactionalDb::PrepareSwitch(DurabilityMode target) {
  if (!options_.allow_switch) {
    return Status::InvalidArgument(
        "engine switching requires Options::allow_switch");
  }
  return EngineFor(target)->PrepareActivation();
}

void TransactionalDb::CompleteSwitch(DurabilityMode target,
                                     uint64_t seed_version) {
  Engine* engine = EngineFor(target);
  engine->SeedVersion(seed_version);
  // The swap itself: refreshes and transactions past this point reach the
  // new engine. The old engine stays alive (quiesced) so a refresh that
  // loaded the old pointer just before the store still lands on valid
  // memory — and on a no-op, since its commit machine is at rest.
  active_engine_.store(engine, std::memory_order_release);
  mode_.store(target, std::memory_order_release);
}

uint32_t TransactionalDb::CreateTable(uint64_t rows, uint32_t value_size) {
  return storage_->CreateTable(rows, value_size);
}

ThreadContext* TransactionalDb::RegisterThread() {
  const uint32_t id = next_thread_id_.fetch_add(1);
  assert(id < options_.max_threads);
  auto ctx = std::make_unique<ThreadContext>();
  ctx->thread_id = id;
  ctx->active.store(true, std::memory_order_release);
  ctx->version = CurrentVersion();
  ctx->read_buffer.resize(4096);
  ThreadContext* raw = ctx.get();
  contexts_[id] = std::move(ctx);
  raw->epoch_slot = epoch_.AcquireSlot();
  // Pick up the current phase before executing anything.
  Refresh(*raw);
  return raw;
}

ThreadContext* TransactionalDb::RegisterSession(uint64_t guid,
                                                uint64_t initial_serial) {
  // Reactivate the guid's parked context if one exists: its serial continues
  // (the session resumes in-process) and its thread id stays stable.
  for (auto& existing : contexts_) {
    if (existing != nullptr && existing->guid == guid &&
        !existing->active.load(std::memory_order_acquire)) {
      existing->epoch_slot = epoch_.AcquireSlot();
      if (existing->epoch_slot < 0) return nullptr;
      existing->active.store(true, std::memory_order_release);
      Refresh(*existing);
      return existing.get();
    }
  }
  const uint32_t id = next_thread_id_.fetch_add(1);
  if (id >= options_.max_threads) {
    next_thread_id_.fetch_sub(1);
    return nullptr;
  }
  auto ctx = std::make_unique<ThreadContext>();
  ctx->thread_id = id;
  ctx->guid = guid;
  ctx->serial.store(initial_serial, std::memory_order_relaxed);
  ctx->cpr_point_serial.store(initial_serial, std::memory_order_relaxed);
  ctx->active.store(true, std::memory_order_release);
  ctx->version = CurrentVersion();
  ctx->read_buffer.resize(4096);
  ThreadContext* raw = ctx.get();
  contexts_[id] = std::move(ctx);
  raw->epoch_slot = epoch_.AcquireSlot();
  if (raw->epoch_slot < 0) {
    raw->active.store(false, std::memory_order_release);
    return nullptr;
  }
  Refresh(*raw);
  return raw;
}

void TransactionalDb::DeregisterThread(ThreadContext* ctx) {
  // Synchronize with the commit state machine first so the parked snapshot
  // below reflects the real global phase, not a stale local view.
  Refresh(*ctx);
  // A thread that leaves before crossing its CPR point has committed all of
  // its transactions and will issue none after: its point is its serial.
  // Past the point (in-progress or later), the recorded value stands for the
  // in-flight commit; parked_phase/parked_version let later commits claim
  // the full serial (see CprEngine's point collection).
  if (ctx->phase == DbPhase::kRest || ctx->phase == DbPhase::kPrepare) {
    ctx->cpr_point_serial.store(ctx->serial.load(std::memory_order_relaxed),
                                std::memory_order_release);
  }
  ctx->parked_phase = ctx->phase;
  ctx->parked_version = ctx->version;
  ctx->active.store(false, std::memory_order_release);
  epoch_.ReleaseSlot(ctx->epoch_slot);
  ctx->epoch_slot = -1;
}

TxnResult TransactionalDb::Execute(ThreadContext& ctx,
                                   const Transaction& txn) {
  return active_engine_.load(std::memory_order_acquire)->Execute(ctx, txn);
}

void TransactionalDb::Refresh(ThreadContext& ctx) {
  // Order matters: thread-local phase transitions happen before the epoch
  // publish, so that "epoch safe" implies "every thread transitioned". The
  // published epoch is the one read before OnRefresh looked at the phase,
  // so a bump landing in between is not acknowledged unseen.
  const uint64_t observed = epoch_.current_epoch();
  active_engine_.load(std::memory_order_acquire)->OnRefresh(ctx);
  epoch_.RefreshSlot(ctx.epoch_slot, observed);
}

uint64_t TransactionalDb::RequestCommit(CommitCallback callback) {
  return active_engine_.load(std::memory_order_acquire)->RequestCommit(std::move(callback));
}

Status TransactionalDb::WaitForCommit(uint64_t version) {
  if (version == 0) {
    // 0 is RequestCommit's "a commit is already in flight" answer, not a
    // version; waiting on it was formerly undefined behavior.
    return Status::InvalidArgument(
        "WaitForCommit(0): 0 is not a commit version (RequestCommit "
        "returned it because a commit was already in flight)");
  }
  return active_engine_.load(std::memory_order_acquire)->WaitForCommit(version);
}

bool TransactionalDb::CommitInProgress() const {
  return active_engine_.load(std::memory_order_acquire)->CommitInProgress();
}

uint64_t TransactionalDb::CurrentVersion() const {
  return active_engine_.load(std::memory_order_acquire)->CurrentVersion();
}

Status TransactionalDb::Recover(std::vector<CommitPoint>* points) {
#ifndef NDEBUG
  // Housekeeping contexts (guid 0, e.g. TxDbBackend's epoch pump) may
  // already be registered — they carry no session state, so recovery can
  // proceed under them. What must not exist yet is a session context or a
  // consumed serial: those would be silently clobbered by recovered state.
  for (const auto& ctx : contexts_) {
    if (ctx == nullptr) continue;
    assert(ctx->guid == 0 && ctx->serial.load(std::memory_order_acquire) == 0 &&
           "recover before any session runs transactions");
  }
#endif
  std::vector<CommitPoint> local;
  Status s = active_engine_.load(std::memory_order_acquire)->Recover(points != nullptr ? points : &local);
  return s;
}

BreakdownCounters TransactionalDb::AggregateCounters() const {
  BreakdownCounters total;
  for (const auto& ctx : contexts_) {
    if (ctx != nullptr) total += ctx->counters;
  }
  return total;
}

uint64_t TransactionalDb::TotalCommitted() const {
  uint64_t total = 0;
  for (const auto& ctx : contexts_) {
    if (ctx != nullptr) total += ctx->serial.load(std::memory_order_relaxed);
  }
  return total;
}

// -- Engine shared helpers ----------------------------------------------

bool Engine::AcquireLocks(const Transaction& txn, ThreadContext& ctx) {
  ctx.locked.clear();
  Storage& storage = db_.storage();
  for (const TxnOp& op : txn.ops) {
    Table& table = storage.table(op.table_id);
    // Deduplicate: a transaction may touch the same record more than once.
    bool already = false;
    for (const LockedRecord& lr : ctx.locked) {
      if (lr.table == &table && lr.row == op.row) {
        already = true;
        break;
      }
    }
    if (already) continue;
    if (!table.header(op.row).latch.TryLock()) {
      ReleaseLocks(ctx);
      return false;  // NO-WAIT: abort instead of waiting
    }
    ctx.locked.push_back(LockedRecord{&table, op.row});
  }
  return true;
}

void Engine::ReleaseLocks(ThreadContext& ctx) {
  for (const LockedRecord& lr : ctx.locked) {
    lr.table->header(lr.row).latch.Unlock();
  }
  ctx.locked.clear();
}

void Engine::ApplyOps(const Transaction& txn, ThreadContext& ctx) {
  Storage& storage = db_.storage();
  ctx.read_bytes = 0;
  ctx.read_offsets.clear();
  for (const TxnOp& op : txn.ops) {
    Table& table = storage.table(op.table_id);
    if (op.type != OpType::kRead) {
      table.header(op.row).dirty.store(1, std::memory_order_relaxed);
    }
    switch (op.type) {
      case OpType::kRead: {
        // Reads copy the value out (paper §7.1: "a read copies the existing
        // value"), modeling the work a real client-visible read performs.
        // Each read lands at the next sequential offset so a multi-read
        // transaction keeps every result (read_offsets[i] -> op i's bytes).
        const uint32_t n = table.value_size();
        if (ctx.read_buffer.size() < ctx.read_bytes + n) {
          ctx.read_buffer.resize(ctx.read_bytes + n);
        }
        std::memcpy(ctx.read_buffer.data() + ctx.read_bytes,
                    table.live(op.row), n);
        ctx.read_offsets.push_back(ctx.read_bytes);
        ctx.read_bytes += n;
        break;
      }
      case OpType::kWrite:
        std::memcpy(table.live(op.row), op.value, table.value_size());
        break;
      case OpType::kAdd: {
        int64_t v;
        std::memcpy(&v, table.live(op.row), sizeof(v));
        v += op.delta;
        std::memcpy(table.live(op.row), &v, sizeof(v));
        break;
      }
    }
  }
}

}  // namespace cpr::txdb
