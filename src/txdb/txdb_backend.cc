#include "txdb/txdb_backend.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "io/retry.h"
#include "obs/metrics.h"
#include "txdb/checkpoint_io.h"
#include "util/clock.h"

namespace cpr::txdb {

namespace {
// Provider-manifest generations kept on disk (newest first).
constexpr uint32_t kRetainProviderManifests = 8;
}  // namespace

durability::ProviderKind ModeToProviderKind(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kCalc:
      return durability::ProviderKind::kCalc;
    case DurabilityMode::kWal:
      return durability::ProviderKind::kWal;
    case DurabilityMode::kCpr:
    case DurabilityMode::kNone:  // never served; mapped for totality
      break;
  }
  return durability::ProviderKind::kCpr;
}

DurabilityMode ProviderKindToMode(durability::ProviderKind kind) {
  switch (kind) {
    case durability::ProviderKind::kCalc:
      return DurabilityMode::kCalc;
    case durability::ProviderKind::kWal:
      return DurabilityMode::kWal;
    case durability::ProviderKind::kCpr:
      break;
  }
  return DurabilityMode::kCpr;
}

// -- SessionAdapter ----------------------------------------------------------

class TxDbBackend::SessionAdapter final : public kv::Session {
 public:
  SessionAdapter(uint64_t guid, ThreadContext* ctx, uint64_t resume_serial)
      : guid_(guid), ctx_(ctx), resume_serial_(resume_serial) {}

  uint64_t guid() const override { return guid_; }
  uint64_t serial() const override {
    return ctx_->serial.load(std::memory_order_acquire);
  }
  uint64_t last_commit_point() const override { return resume_serial_; }
  size_t pending_count() const override { return 0; }  // synchronous engine
  void set_async_callback(
      std::function<void(const faster::AsyncResult&)> cb) override {
    (void)cb;  // nothing ever completes asynchronously
  }

  ThreadContext* ctx() const { return ctx_; }

 private:
  const uint64_t guid_;
  ThreadContext* const ctx_;
  // Serial the session resumes at: the guid's durable commit point after a
  // process restart, or the context's live serial when reattaching a parked
  // in-process session (whose effects are all still in memory).
  const uint64_t resume_serial_;
};

ThreadContext& TxDbBackend::Ctx(kv::Session& session) {
  return *static_cast<SessionAdapter&>(session).ctx();
}

// -- Construction ------------------------------------------------------------

TxDbBackend::TxDbBackend(Options options)
    : options_(std::move(options)), db_(options_.db) {
  assert(!options_.tables.empty());
  // The KV surface's Rmw adds into the first 8 bytes of a table-0 row.
  assert(options_.tables[0].value_size >= 8);
  for (const TableSpec& t : options_.tables) {
    db_.CreateTable(t.rows, t.value_size);
  }
  table0_rows_ = db_.table(0).rows();
  table0_value_size_ = db_.table(0).value_size();
  zero_value_.assign(table0_value_size_, 0);

  // Provider-manifest bootstrap: the durable manifest chain outranks the
  // configured mode (a restart with a different --mode must keep honoring
  // what the directory says it contains). Cold adoption goes through
  // CompleteSwitch ALONE — PrepareSwitch would reset the adopted engine,
  // truncating a WAL log that Recover() still has to replay.
  uint64_t generation = 0;
  durability::ProviderManifest m;
  const Status ms =
      durability::ReadLatestProviderManifest(options_.db.durability_dir, &m);
  if (ms.ok()) {
    generation = m.generation;
    const DurabilityMode want = ProviderKindToMode(m.kind);
    if (want != db_.mode()) db_.CompleteSwitch(want, /*seed_version=*/1);
  } else if (ms.code() == Status::Code::kNotFound) {
    // Fresh (or pre-manifest) directory: anchor the chain at generation 1
    // naming the configured provider. Best-effort — if the write fails we
    // serve at generation 0 and the first switch publishes generation 1.
    const durability::ProviderManifest first{1, ModeToProviderKind(db_.mode()),
                                             0};
    if (durability::WriteProviderManifest(options_.db.durability_dir, first,
                                          options_.db.sync_to_disk)
            .ok()) {
      generation = 1;
    }
  }
  // (Corruption — no manifest verifies — also serves the configured mode at
  // generation 0; the next publish rebuilds the chain.)
  // The private-base upcast must happen here, in member scope —
  // make_unique's forwarding runs in std:: where the base is inaccessible.
  durability::SwitchHost& host = *this;
  switch_ = std::make_unique<durability::SwitchController>(host, generation);

  pump_ctx_ = db_.RegisterThread();
  pump_thread_ = std::thread([this] { PumpLoop(); });
  switch_thread_ = std::thread([this] { SwitchLoop(); });

  static std::atomic<uint64_t> next_backend_id{0};
  const std::string label =
      "{backend=\"" + std::to_string(next_backend_id.fetch_add(1)) + "\"}";
  txn_execute_ns_ =
      obs::MetricsRegistry::Default().GetHistogram("cpr_txdb_txn_execute_ns");
  provider_collector_id_ = obs::MetricsRegistry::Default().AddCollector(
      [this, label](const obs::MetricsRegistry::EmitFn& emit) {
        emit("cpr_durability_provider" + label,
             static_cast<double>(static_cast<uint8_t>(Provider())));
        emit("cpr_durability_switch_total" + label,
             static_cast<double>(switch_->switches()));
        emit("cpr_durability_last_switch_version" + label,
             static_cast<double>(switch_->last_boundary_version()));
        emit("cpr_durability_switch_pending" + label,
             ProviderSwitchPending() ? 1.0 : 0.0);
      });
}

TxDbBackend::~TxDbBackend() {
  obs::MetricsRegistry::Default().RemoveCollector(provider_collector_id_);
  // The switch thread goes first, while the pump still runs: a switch in
  // flight needs epoch progress to conclude its commit wait.
  {
    std::lock_guard<std::mutex> lock(swreq_mu_);
    stop_switch_ = true;
  }
  swreq_cv_.notify_all();
  switch_thread_.join();
  stop_pump_.store(true, std::memory_order_release);
  pump_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) db_.DeregisterThread(s->ctx());
    sessions_.clear();
  }
  db_.DeregisterThread(pump_ctx_);
}

void TxDbBackend::PumpLoop() {
  // Keeps the epoch (and therefore commit phase transitions) progressing
  // even when no session is connected. Session contexts are refreshed by
  // the server's event-loop workers; this context only covers the gaps.
  while (!stop_pump_.load(std::memory_order_acquire)) {
    db_.Refresh(*pump_ctx_);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// -- Op-admission gate -------------------------------------------------------

void TxDbBackend::EnterOp() {
  for (;;) {
    active_ops_.fetch_add(1, std::memory_order_acquire);
    if (!ops_paused_.load(std::memory_order_acquire)) return;  // fast path
    // Paused: hand the ticket back (waking the pauser if we were the last
    // holder) and wait for the resume.
    active_ops_.fetch_sub(1, std::memory_order_release);
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.notify_all();
    gate_cv_.wait(lock, [this] {
      return !ops_paused_.load(std::memory_order_acquire);
    });
  }
}

void TxDbBackend::ExitOp() {
  const uint32_t prev = active_ops_.fetch_sub(1, std::memory_order_release);
  if (prev == 1 && ops_paused_.load(std::memory_order_acquire)) {
    // Last ticket out during a pause; the notify is under gate_mu_ so it
    // cannot slip between the pauser's predicate check and its wait.
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_cv_.notify_all();
  }
}

void TxDbBackend::PauseOps() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  ops_paused_.store(true, std::memory_order_release);
  gate_cv_.wait(lock, [this] {
    return active_ops_.load(std::memory_order_acquire) == 0;
  });
}

void TxDbBackend::ResumeOps() {
  std::lock_guard<std::mutex> lock(gate_mu_);
  ops_paused_.store(false, std::memory_order_release);
  gate_cv_.notify_all();
}

// -- Provider switching ------------------------------------------------------

durability::ProviderKind TxDbBackend::CurrentProvider() const {
  return ModeToProviderKind(db_.mode());
}

void TxDbBackend::WaitForInflightCommit() {
  for (;;) {
    uint64_t token = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      token = pending_token_;
    }
    if (token != 0) {
      // The outcome is irrelevant here — the commit just has to conclude.
      (void)WaitForCheckpoint(token);
      continue;
    }
    if (db_.CommitInProgress()) {
      // A commit started outside this backend's token machinery (engine
      // internal); poll it out.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    return;
  }
}

bool TxDbBackend::CommitInFlight() const { return CheckpointInProgress(); }

void TxDbBackend::CaptureFullImage(CheckpointMeta* meta,
                                   std::vector<char>* data) {
  uint64_t total = 0;
  for (uint32_t t = 0; t < db_.num_tables(); ++t) {
    Table& table = db_.table(t);
    meta->table_schemas.emplace_back(table.rows(), table.value_size());
    total += table.rows() * table.value_size();
  }
  data->clear();
  data->reserve(total);
  for (uint32_t t = 0; t < db_.num_tables(); ++t) {
    Table& table = db_.table(t);
    // No latches: the database is quiesced, so no writer can hold one.
    for (uint64_t row = 0; row < table.rows(); ++row) {
      const char* src = static_cast<const char*>(table.live(row));
      data->insert(data->end(), src, src + table.value_size());
    }
  }
  meta->data_bytes = data->size();
}

Status TxDbBackend::WriteBoundaryCheckpoint(uint64_t* version_out) {
  // The database is quiesced (ops drained, no commit in flight): capture a
  // full image directly under the old provider's current version, making it
  // an ordinary generation of the checkpoint chain. Deliberately NO
  // RetainCheckpoints here — the still-active manifest may name a WAL base
  // this GC pass would be allowed to delete; the next engine checkpoint
  // collects garbage as usual.
  const uint64_t v = db_.CurrentVersion();
  CheckpointMeta meta;
  meta.version = v;
  meta.is_delta = false;
  std::vector<char> data;
  CaptureFullImage(&meta, &data);
  for (const auto& ctx : db_.contexts()) {
    if (ctx == nullptr) continue;
    meta.points.push_back(
        CommitPoint{ctx->thread_id,
                    ctx->serial.load(std::memory_order_acquire), ctx->guid});
  }
  const TransactionalDb::Options& o = db_.options();
  const Status s = RetryWithBackoff(
      o.checkpoint_retry_attempts, o.checkpoint_retry_backoff_ms, [&] {
        return WriteCheckpoint(o.durability_dir, meta, data, o.sync_to_disk);
      });
  if (!s.ok()) return s;
  // The image is durable: its points are durable commit points now, exactly
  // as if an engine commit had delivered them.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const CommitPoint& p : meta.points) {
      if (p.guid == 0) continue;
      uint64_t& d = durable_points_[p.guid];
      if (p.serial > d) d = p.serial;
    }
  }
  *version_out = v;
  return Status::Ok();
}

Status TxDbBackend::PrepareProvider(durability::ProviderKind target) {
  return db_.PrepareSwitch(ProviderKindToMode(target));
}

Status TxDbBackend::PublishManifest(
    const durability::ProviderManifest& manifest) {
  const Status s = durability::WriteProviderManifest(
      db_.options().durability_dir, manifest, db_.options().sync_to_disk);
  if (!s.ok()) return s;
  (void)durability::RetainProviderManifests(db_.options().durability_dir,
                                            kRetainProviderManifests);
  return Status::Ok();
}

void TxDbBackend::ActivateProvider(durability::ProviderKind target,
                                   uint64_t seed_version) {
  db_.CompleteSwitch(ProviderKindToMode(target), seed_version);
}

durability::ProviderKind TxDbBackend::Provider() const {
  return ModeToProviderKind(db_.mode());
}

Status TxDbBackend::SwitchProvider(durability::ProviderKind target) {
  const Status s = switch_->Switch(target);
  std::lock_guard<std::mutex> lock(swreq_mu_);
  last_switch_status_ = s;
  return s;
}

bool TxDbBackend::RequestProviderSwitch(durability::ProviderKind target) {
  std::lock_guard<std::mutex> lock(swreq_mu_);
  if (stop_switch_) return false;
  if (ProviderKindToMode(target) == db_.mode() && !swreq_pending_) {
    return true;  // already there — accepted as a no-op
  }
  swreq_pending_ = true;  // a pending different-target request is superseded
  swreq_target_ = target;
  swreq_cv_.notify_all();
  return true;
}

bool TxDbBackend::ProviderSwitchPending() const {
  std::lock_guard<std::mutex> lock(swreq_mu_);
  return swreq_pending_;
}

uint64_t TxDbBackend::ProviderSwitches() const { return switch_->switches(); }

uint64_t TxDbBackend::ProviderLastBoundary() const {
  return switch_->last_boundary_version();
}

void TxDbBackend::SwitchLoop() {
  for (;;) {
    durability::ProviderKind target;
    {
      std::unique_lock<std::mutex> lock(swreq_mu_);
      swreq_cv_.wait(lock,
                     [this] { return swreq_pending_ || stop_switch_; });
      if (stop_switch_) return;  // a pending request at shutdown is dropped
      target = swreq_target_;
      swreq_pending_ = false;
    }
    const Status s = switch_->Switch(target);
    std::lock_guard<std::mutex> lock(swreq_mu_);
    last_switch_status_ = s;
  }
}

// -- Sessions ----------------------------------------------------------------

kv::Session* TxDbBackend::StartSession(uint64_t guid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (guid == 0) {
    guid = next_guid_++;
  } else {
    for (const auto& s : sessions_) {
      if (s->guid() == guid) return nullptr;  // live duplicate
    }
    if (guid >= next_guid_) next_guid_ = guid + 1;
  }
  uint64_t durable = 0;
  if (auto it = durable_points_.find(guid); it != durable_points_.end()) {
    durable = it->second;
  }
  ThreadContext* ctx = db_.RegisterSession(guid, durable);
  if (ctx == nullptr) return nullptr;  // context table full
  // A reactivated parked context resumes at its live serial (its effects
  // are in memory); a fresh one starts at the recovered durable point.
  const uint64_t resume = ctx->serial.load(std::memory_order_acquire);
  sessions_.push_back(
      std::make_unique<SessionAdapter>(guid, ctx, resume));
  return sessions_.back().get();
}

void TxDbBackend::StopSession(kv::Session* session) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == session) {
      db_.DeregisterThread(it->get()->ctx());
      sessions_.erase(it);
      return;
    }
  }
}

Status TxDbBackend::DurableCommitPoint(uint64_t guid, uint64_t* serial) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = durable_points_.find(guid);
  if (it == durable_points_.end()) {
    return Status::NotFound("no durable commit point for guid " +
                            std::to_string(guid));
  }
  *serial = it->second;
  return Status::Ok();
}

// -- Durability counters -----------------------------------------------------

uint64_t TxDbBackend::LastCheckpointToken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_checkpoint_token_;
}

uint64_t TxDbBackend::LastFinishedToken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_finished_token_;
}

uint64_t TxDbBackend::CheckpointFailures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_failures_;
}

// -- KV surface (single-op transactions on table 0) --------------------------

void TxDbBackend::ExecuteCommitted(ThreadContext& ctx,
                                   const Transaction& txn) {
  const uint64_t t0 = NowNanos();
  for (;;) {
    switch (db_.Execute(ctx, txn)) {
      case TxnResult::kCommitted:
        txn_execute_ns_->Record(NowNanos() - t0);
        return;
      case TxnResult::kAbortedConflict:
        std::this_thread::yield();
        break;
      case TxnResult::kAbortedCprShift:
        break;  // Execute already refreshed; retry immediately
    }
  }
}

faster::OpStatus TxDbBackend::Read(kv::Session& session, uint64_t key,
                                   void* value_out) {
  OpGuard guard(*this);
  ThreadContext& ctx = Ctx(session);
  Transaction txn;
  txn.ops.push_back(
      TxnOp{0, OpType::kRead, key % table0_rows_, nullptr, 0});
  ExecuteCommitted(ctx, txn);
  std::memcpy(value_out, ctx.read_buffer.data(), table0_value_size_);
  return faster::OpStatus::kOk;
}

faster::OpStatus TxDbBackend::Upsert(kv::Session& session, uint64_t key,
                                     const void* value) {
  OpGuard guard(*this);
  ThreadContext& ctx = Ctx(session);
  Transaction txn;
  txn.ops.push_back(
      TxnOp{0, OpType::kWrite, key % table0_rows_, value, 0});
  ExecuteCommitted(ctx, txn);
  return faster::OpStatus::kOk;
}

faster::OpStatus TxDbBackend::Rmw(kv::Session& session, uint64_t key,
                                  int64_t delta) {
  OpGuard guard(*this);
  ThreadContext& ctx = Ctx(session);
  Transaction txn;
  txn.ops.push_back(
      TxnOp{0, OpType::kAdd, key % table0_rows_, nullptr, delta});
  ExecuteCommitted(ctx, txn);
  return faster::OpStatus::kOk;
}

faster::OpStatus TxDbBackend::Delete(kv::Session& session, uint64_t key) {
  // Rows of a fixed-size table always exist; delete means zero-fill.
  OpGuard guard(*this);
  ThreadContext& ctx = Ctx(session);
  Transaction txn;
  txn.ops.push_back(
      TxnOp{0, OpType::kWrite, key % table0_rows_, zero_value_.data(), 0});
  ExecuteCommitted(ctx, txn);
  return faster::OpStatus::kOk;
}

void TxDbBackend::Refresh(kv::Session& session) {
  db_.Refresh(Ctx(session));
}

size_t TxDbBackend::CompletePending(kv::Session& session, bool wait_for_all) {
  (void)session;
  (void)wait_for_all;
  return 0;  // every operation completes inline
}

// -- Transactions ------------------------------------------------------------

kv::TxnStatus TxDbBackend::Txn(kv::Session& session,
                               const std::vector<kv::TxnOp>& ops,
                               std::vector<std::vector<char>>* reads) {
  if (ops.empty()) return kv::TxnStatus::kBadRequest;
  OpGuard guard(*this);
  ThreadContext& ctx = Ctx(session);

  // Validate the whole read-write set before touching anything: a rejected
  // transaction must have no effects and consume no serial.
  Transaction txn;
  txn.ops.reserve(ops.size());
  for (const kv::TxnOp& op : ops) {
    if (op.table >= db_.num_tables()) return kv::TxnStatus::kBadRequest;
    Table& table = db_.table(op.table);
    if (op.row >= table.rows()) return kv::TxnStatus::kBadRequest;
    switch (op.kind) {
      case kv::TxnOp::Kind::kRead:
        txn.ops.push_back(TxnOp{op.table, OpType::kRead, op.row, nullptr, 0});
        break;
      case kv::TxnOp::Kind::kWrite:
        if (op.value.size() != table.value_size()) {
          return kv::TxnStatus::kBadRequest;
        }
        txn.ops.push_back(
            TxnOp{op.table, OpType::kWrite, op.row, op.value.data(), 0});
        break;
      case kv::TxnOp::Kind::kAdd:
        if (table.value_size() < 8) return kv::TxnStatus::kBadRequest;
        txn.ops.push_back(
            TxnOp{op.table, OpType::kAdd, op.row, nullptr, op.delta});
        break;
    }
  }

  const uint64_t t0 = NowNanos();
  for (;;) {
    switch (db_.Execute(ctx, txn)) {
      case TxnResult::kCommitted: {
        txn_execute_ns_->Record(NowNanos() - t0);
        if (reads != nullptr) {
          reads->clear();
          size_t read_idx = 0;
          for (const kv::TxnOp& op : ops) {
            if (op.kind != kv::TxnOp::Kind::kRead) continue;
            const uint32_t n = db_.table(op.table).value_size();
            const char* src =
                ctx.read_buffer.data() + ctx.read_offsets[read_idx++];
            reads->emplace_back(src, src + n);
          }
        }
        return kv::TxnStatus::kCommitted;
      }
      case TxnResult::kAbortedConflict:
        // NO-WAIT aborts surface to the client as retryable TXN_CONFLICT.
        // The abort still consumes one session serial (with no effects) so
        // the client's predicted serials — and its crash replay — line up
        // with the server's regardless of the conflict.
        ctx.serial.fetch_add(1, std::memory_order_release);
        txn_execute_ns_->Record(NowNanos() - t0);
        return kv::TxnStatus::kConflict;
      case TxnResult::kAbortedCprShift:
        break;  // the context refreshed; retry (at most once per commit)
    }
  }
}

Status TxDbBackend::Dump(uint32_t table, uint64_t start_row, uint32_t max_rows,
                         uint32_t max_bytes, uint32_t* value_size,
                         uint64_t* rows_total, uint64_t* next_row,
                         std::vector<kv::DumpRow>* rows) {
  if (table >= db_.num_tables()) {
    return Status::NotFound("table out of range");
  }
  Table& t = db_.table(table);
  *value_size = t.value_size();
  *rows_total = t.rows();
  *next_row = 0;
  const uint64_t row_bytes = 8 + t.value_size();
  uint64_t budget = max_bytes;
  uint32_t emitted = 0;
  for (uint64_t row = start_row; row < t.rows(); ++row) {
    if (emitted == max_rows || budget < row_bytes) {
      *next_row = row;
      break;
    }
    kv::DumpRow out;
    out.row = row;
    out.value.resize(t.value_size());
    {
      SpinLatchGuard guard(t.header(row).latch);
      std::memcpy(out.value.data(), t.live(row), t.value_size());
    }
    bool all_zero = true;
    for (char c : out.value) {
      if (c != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    rows->push_back(std::move(out));
    ++emitted;
    budget -= row_bytes;
  }
  return Status::Ok();
}

// -- Checkpoints / recovery --------------------------------------------------

bool TxDbBackend::Checkpoint(faster::CommitVariant variant, bool include_index,
                             uint64_t* token_out) {
  (void)variant;
  (void)include_index;
  // Gated like an operation: a checkpoint must not start while a provider
  // switch holds the quiesce (its boundary capture assumes no commit races
  // in underneath it).
  OpGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_token_ != 0) {
    // Coalesce: the in-flight commit's durable version covers this request
    // too (every transaction executed before it concludes is captured or
    // explicitly after its CPR points).
    if (token_out != nullptr) *token_out = pending_token_;
    return true;
  }
  const uint64_t v = db_.RequestCommit(
      [this](uint64_t version, const Status& s,
             const std::vector<CommitPoint>& points) {
        OnCommitDone(version, s, points);
      });
  if (v == 0) return false;  // engine busy outside this backend's control
  const uint64_t token = ++next_token_;
  pending_token_ = token;
  pending_version_ = v;
  rounds_[token] = Round{v, false, Status::Ok()};
  while (rounds_.size() > 64) rounds_.erase(rounds_.begin());
  if (token_out != nullptr) *token_out = token;
  return true;
}

void TxDbBackend::OnCommitDone(uint64_t version, const Status& status,
                               const std::vector<CommitPoint>& points) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_token_ != 0 && pending_version_ == version) {
    auto it = rounds_.find(pending_token_);
    if (it != rounds_.end()) {
      it->second.finished = true;
      it->second.status = status;
    }
    last_finished_token_ = pending_token_;
    if (status.ok()) {
      last_checkpoint_token_ = pending_token_;
    } else {
      ++checkpoint_failures_;
    }
    pending_token_ = 0;
    pending_version_ = 0;
  }
  if (status.ok()) {
    for (const CommitPoint& p : points) {
      if (p.guid == 0) continue;
      uint64_t& d = durable_points_[p.guid];
      if (p.serial > d) d = p.serial;  // serials are monotonic per guid
    }
  }
  ckpt_cv_.notify_all();
}

bool TxDbBackend::CheckpointInProgress() const {
  if (db_.CommitInProgress()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return pending_token_ != 0;
}

Status TxDbBackend::WaitForCheckpoint(uint64_t token) {
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rounds_.find(token);
    if (it == rounds_.end()) {
      return Status::NotFound("unknown checkpoint token " +
                              std::to_string(token));
    }
    if (it->second.finished) return it->second.status;
    version = it->second.version;
  }
  // The engine-level wait carries the no-progress detection (nobody
  // refreshing -> error, not a hang). Under the WAL engine its wakeup can
  // precede the commit callback, so wait for the round to be marked
  // finished after.
  const Status ws = db_.WaitForCommit(version);
  if (ws.code() == Status::Code::kAborted ||
      ws.code() == Status::Code::kInvalidArgument) {
    return ws;
  }
  std::unique_lock<std::mutex> lock(mu_);
  ckpt_cv_.wait(lock, [this, token] {
    auto it = rounds_.find(token);
    return it == rounds_.end() || it->second.finished;
  });
  auto it = rounds_.find(token);
  if (it != rounds_.end()) return it->second.status;
  return ws;
}

void TxDbBackend::MergePoints(const std::vector<CommitPoint>& points) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const CommitPoint& p : points) {
    if (p.guid == 0) continue;
    uint64_t& d = durable_points_[p.guid];
    if (p.serial > d) d = p.serial;
    if (p.guid >= next_guid_) next_guid_ = p.guid + 1;
  }
}

Status TxDbBackend::Recover() {
  // The constructor already cold-adopted the newest valid manifest's kind,
  // so db_.mode() honors the chain; the manifest is re-read here for its
  // recovery base.
  durability::ProviderManifest m;
  const Status ms = durability::ReadLatestProviderManifest(
      db_.options().durability_dir, &m);
  if (ms.ok() && m.kind == durability::ProviderKind::kWal) {
    return RecoverWal(m);
  }
  // CPR / CALC — and legacy directories with no manifest chain: the ordinary
  // checkpoint chain is the recovery source (a switch's boundary checkpoint
  // is simply its newest generation).
  std::vector<CommitPoint> points;
  const Status s = db_.Recover(&points);
  if (!s.ok()) return s;
  MergePoints(points);
  return Status::Ok();
}

Status TxDbBackend::RecoverWal(const durability::ProviderManifest& m) {
  const std::string& dir = db_.options().durability_dir;
  const TransactionalDb::Options& o = db_.options();

  // Base image first (the boundary checkpoint the switch materialized), then
  // the log replays the post-switch suffix on top of it.
  std::vector<CommitPoint> base_points;
  bool have_base = false;
  if (m.base_version > 0) {
    CheckpointMeta base_meta;
    std::vector<char> base_data;
    Status s = ReadCheckpointAt(dir, m.base_version, &base_meta, &base_data);
    if (!s.ok()) return s;
    s = ApplyCheckpointData(db_.storage(), base_meta, base_data);
    if (!s.ok()) return s;
    base_points = std::move(base_meta.points);
    have_base = true;
  }
  std::vector<CommitPoint> log_points;
  {
    const Status s = db_.Recover(&log_points);
    // An empty log is a legitimate durable state right after a switch
    // (truncated, nothing flushed yet) — but only when a base exists.
    if (!s.ok() &&
        !(have_base && s.code() == Status::Code::kNotFound)) {
      return s;
    }
  }

  // Fold: log points supersede base points (higher serial wins). Points are
  // keyed by guid when serving-session-bound, by thread otherwise.
  std::vector<CommitPoint> merged;
  auto fold = [&merged](const CommitPoint& p) {
    for (CommitPoint& q : merged) {
      const bool same = (p.guid != 0 || q.guid != 0)
                            ? (p.guid == q.guid)
                            : (p.thread_id == q.thread_id);
      if (same) {
        if (p.serial > q.serial) q = p;
        return;
      }
    }
    merged.push_back(p);
  };
  for (const CommitPoint& p : base_points) fold(p);
  for (const CommitPoint& p : log_points) fold(p);
  MergePoints(merged);

  // Re-base: fold the recovered state into a fresh full checkpoint and
  // restart the log from offset zero. Without this, the ring (which resumes
  // at offset 0) would overwrite the just-replayed log in place, and a
  // second crash could replay stale records past the new tail. Ordering is
  // load-bearing: the manifest naming the new base must be durable BEFORE
  // the log is truncated — a crash between the two recovers new-base +
  // old-log, which is idempotent (every log record is already in the base).
  uint64_t new_base = m.base_version + 1;
  const std::vector<uint64_t> versions = CheckpointChain(dir).List();
  if (!versions.empty()) new_base = std::max(new_base, versions.front() + 1);
  CheckpointMeta meta;
  meta.version = new_base;
  meta.is_delta = false;
  std::vector<char> data;
  CaptureFullImage(&meta, &data);
  meta.points = merged;
  Status s = RetryWithBackoff(
      o.checkpoint_retry_attempts, o.checkpoint_retry_backoff_ms,
      [&] { return WriteCheckpoint(dir, meta, data, o.sync_to_disk); });
  if (!s.ok()) return s;
  const durability::ProviderManifest next{
      m.generation + 1, durability::ProviderKind::kWal, new_base};
  s = durability::WriteProviderManifest(dir, next, o.sync_to_disk);
  if (!s.ok()) return s;
  (void)durability::RetainProviderManifests(dir, kRetainProviderManifests);
  switch_->SetGeneration(next.generation);
  // Truncate the folded log and continue the version space past the base.
  s = db_.PrepareSwitch(DurabilityMode::kWal);
  if (!s.ok()) return s;
  db_.CompleteSwitch(DurabilityMode::kWal, new_base + 1);
  return Status::Ok();
}

}  // namespace cpr::txdb
