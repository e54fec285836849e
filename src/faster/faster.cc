#include "faster/faster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "io/blob.h"
#include "io/file.h"
#include "util/clock.h"
#include "util/hash.h"

namespace cpr::faster {

namespace {

// True iff `rec_version` is the (v+1) version relative to commit version v,
// modulo the 13-bit wraparound of the record header field.
bool IsNextVersion(uint32_t rec_version, uint32_t v_commit) {
  return rec_version ==
         ((v_commit + 1) & static_cast<uint32_t>(RecordInfo::kVersionMask));
}

// Checked-blob magics (io/blob.h) for each checkpoint artifact kind.
constexpr uint64_t kMetaMagic = 0x465354524D455441ull;  // "FSTRMETA"
constexpr uint64_t kSnapMagic = 0x46535452534E4150ull;  // "FSTRSNAP"
constexpr uint64_t kIndexMagic = 0x46535452494E4458ull; // "FSTRINDX"

std::string MetaPath(const std::string& dir, uint64_t token) {
  return dir + "/ckpt." + std::to_string(token) + ".meta";
}
std::string SnapshotPath(const std::string& dir, uint64_t token) {
  return dir + "/ckpt." + std::to_string(token) + ".snap";
}
std::string IndexPath(const std::string& dir, uint64_t token) {
  return dir + "/index." + std::to_string(token) + ".dat";
}

// Parses "<prefix><digits><suffix>" into the token value.
bool ParseTokenFile(const std::string& name, const std::string& prefix,
                    const std::string& suffix, uint64_t* token) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  *token = value;
  return value != 0;
}

// Tokens of every on-disk checkpoint meta file, descending (newest first —
// tokens come from a monotonic clock).
std::vector<uint64_t> ListCheckpointTokens(const std::string& dir) {
  std::vector<uint64_t> tokens;
  std::vector<std::string> names;
  if (!ListDirectory(dir, &names).ok()) return tokens;
  for (const std::string& name : names) {
    uint64_t t = 0;
    if (ParseTokenFile(name, "ckpt.", ".meta", &t)) tokens.push_back(t);
  }
  std::sort(tokens.begin(), tokens.end(), std::greater<uint64_t>());
  return tokens;
}

template <typename T>
void AppendPod(std::vector<char>& buf, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
bool ConsumePod(const std::vector<char>& buf, size_t* off, T* out) {
  if (*off + sizeof(T) > buf.size()) return false;
  std::memcpy(out, buf.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

}  // namespace

namespace {

obs::Counter* PhaseNs(const char* phase) {
  return obs::MetricsRegistry::Default().GetCounter(
      std::string("cpr_faster_checkpoint_phase_ns_total{phase=\"") + phase +
      "\"}");
}

}  // namespace

FasterKv::FasterKv(Options options)
    : options_(std::move(options)),
      epoch_(256),
      io_(options_.io_threads),
      record_size_(Record::SizeWithValue(options_.value_size)),
      state_(SystemState::Pack(Phase::kRest, 1)),
      phase_prepare_ns_(PhaseNs("prepare")),
      phase_in_progress_ns_(PhaseNs("in_progress")),
      phase_wait_pending_ns_(PhaseNs("wait_pending")),
      phase_wait_flush_ns_(PhaseNs("wait_flush")),
      ckpts_started_total_(obs::MetricsRegistry::Default().GetCounter(
          "cpr_faster_checkpoints_started_total")),
      ckpt_failures_total_(obs::MetricsRegistry::Default().GetCounter(
          "cpr_faster_checkpoint_failures_total")) {
  CreateDirectories(options_.dir);
  index_ = std::make_unique<HashIndex>(options_.index_buckets);
  bucket_latches_.reset(new SharedLatch[index_->num_buckets()]);
  HybridLog::Config cfg;
  cfg.page_bits = options_.page_bits;
  cfg.memory_pages = options_.memory_pages;
  cfg.ro_lag_pages = options_.ro_lag_pages;
  cfg.path = options_.dir + "/hlog.dat";
  cfg.sync = options_.sync_to_disk;
  hlog_ = std::make_unique<HybridLog>(cfg, &epoch_, &io_);
  pending_count_[0].store(0);
  pending_count_[1].store(0);

  // Per-store epoch-table lag collector (removed before `this` dies). The
  // label distinguishes instances (shards) in one process.
  static std::atomic<uint64_t> next_store_id{0};
  const std::string store =
      "{store=\"" + std::to_string(next_store_id.fetch_add(1)) + "\"}";
  epoch_collector_id_ = obs::MetricsRegistry::Default().AddCollector(
      [this, store](const obs::MetricsRegistry::EmitFn& emit) {
        const EpochFramework::Metrics m = epoch_.MetricsSample();
        emit("cpr_epoch_current" + store, static_cast<double>(m.current_epoch));
        emit("cpr_epoch_safe" + store, static_cast<double>(m.safe_epoch));
        emit("cpr_epoch_lag" + store,
             static_cast<double>(m.current_epoch - m.safe_epoch));
        emit("cpr_epoch_protected_sessions" + store,
             static_cast<double>(m.protected_threads));
        emit("cpr_epoch_drain_pending" + store,
             static_cast<double>(m.pending_actions));
      });
}

FasterKv::~FasterKv() {
  obs::MetricsRegistry::Default().RemoveCollector(epoch_collector_id_);
  io_.Drain();
}

void FasterKv::ClosePhaseSpan(const char* phase_name, obs::Counter* phase_ns,
                              uint64_t now) {
  const uint64_t start = phase_start_ns_.exchange(now,
                                                  std::memory_order_relaxed);
  if (start == 0 || now <= start) return;
  phase_ns->Add(now - start);
  obs::Tracer::Default().Record(
      "faster", phase_name, start, now,
      trace_token_.load(std::memory_order_relaxed));
}

// -- Sessions -------------------------------------------------------------

Session* FasterKv::StartSession(uint64_t guid) {
  const int32_t slot = epoch_.AcquireSlot();
  if (slot < 0) return nullptr;  // epoch table full
  auto session = std::make_unique<Session>();
  session->guid_ = guid != 0 ? guid : (NowNanos() ^ next_guid_.fetch_add(1));
  session->epoch_slot_ = slot;
  Session* raw = session.get();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (guid != 0) {
      // A recovered session resumes its serial numbering at the recovered
      // commit point, so new operations extend the durable prefix instead
      // of renumbering it.
      auto it = recovered_points_.find(guid);
      if (it != recovered_points_.end()) {
        raw->serial_ = it->second;
        raw->cpr_point_serial_.store(it->second, std::memory_order_relaxed);
      }
    }
    sessions_.push_back(std::move(session));
  }
  const uint64_t st = state_.load(std::memory_order_acquire);
  const Phase ph = SystemState::PhaseOf(st);
  const uint32_t v = SystemState::VersionOf(st);
  raw->phase_ = ph;
  raw->version_ = ph >= Phase::kInProgress ? v + 1 : v;
  return raw;
}

void FasterKv::StopSession(Session* session) {
  const int32_t slot = session->epoch_slot_;
  CompletePending(*session, /*wait_for_all=*/true);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (SystemState::PhaseOf(state_.load(std::memory_order_acquire)) !=
        Phase::kRest) {
      // Contribute this session's commit point to the in-flight commit.
      const uint64_t point =
          session->phase_ <= Phase::kPrepare
              ? session->serial_
              : session->cpr_point_serial_.load(std::memory_order_acquire);
      parted_points_.push_back(SessionCommitPoint{session->guid_, point});
    }
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->get() == session) {
        sessions_.erase(it);
        break;
      }
    }
  }
  epoch_.ReleaseSlot(slot);
}

Status FasterKv::ContinueSession(uint64_t guid,
                                 uint64_t* recovered_serial) const {
  auto it = recovered_points_.find(guid);
  if (it == recovered_points_.end()) {
    return Status::NotFound("no recovered CPR point for session");
  }
  *recovered_serial = it->second;
  return Status::Ok();
}

Status FasterKv::DurableCommitPoint(uint64_t guid, uint64_t* serial) const {
  std::lock_guard<std::mutex> lock(durable_mu_);
  auto it = durable_points_.find(guid);
  if (it == durable_points_.end()) {
    return Status::NotFound("no durable CPR point for session");
  }
  *serial = it->second;
  return Status::Ok();
}

// -- Value helpers --------------------------------------------------------

void FasterKv::ApplyInPlace(PendingOp& op, Record* rec) {
  if (op.kind == OpKind::kUpsert) {
    std::memcpy(rec->value(), op.value.data(), options_.value_size);
  } else {  // kRmw: atomic running sum on the first 8 bytes (paper §7.1)
    auto* cell = reinterpret_cast<int64_t*>(rec->value());
    std::atomic_ref<int64_t>(*cell).fetch_add(op.delta,
                                              std::memory_order_relaxed);
  }
}

void FasterKv::FillValue(PendingOp& op, const Record* base, char* value_out) {
  switch (op.kind) {
    case OpKind::kUpsert:
      std::memcpy(value_out, op.value.data(), options_.value_size);
      break;
    case OpKind::kRmw: {
      if (base != nullptr && !base->info.tombstone()) {
        std::memcpy(value_out, base->value(), options_.value_size);
      } else {
        std::memset(value_out, 0, options_.value_size);
      }
      int64_t cell;
      std::memcpy(&cell, value_out, sizeof(cell));
      cell += op.delta;
      std::memcpy(value_out, &cell, sizeof(cell));
      break;
    }
    case OpKind::kDelete:
      std::memset(value_out, 0, options_.value_size);
      break;
    case OpKind::kRead:
      break;
  }
}

FasterKv::OpOutcome FasterKv::CreateRecord(PendingOp& op,
                                           uint32_t record_version,
                                           std::atomic<uint64_t>* entry,
                                           uint64_t entry_word,
                                           const Record* base) {
  const Address address = hlog_->Allocate(record_size_);
  if (address == kInvalidAddress) return OpOutcome::kAllocStall;
  Record* rec = reinterpret_cast<Record*>(hlog_->Ptr(address));
  rec->key = op.key;
  FillValue(op, base, rec->value());
  rec->info = RecordInfo(EntryWord::AddressOf(entry_word), record_version,
                         op.kind == OpKind::kDelete);
  const uint64_t desired =
      EntryWord::Make(address, EntryWord::TagOf(entry_word), false);
  uint64_t expected = entry_word;
  if (!entry->compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel)) {
    // Lost the race: orphan the record so neither chain traversal nor
    // recovery's log scan ever surfaces it.
    rec->info.set_invalid();
    return OpOutcome::kPendingRetry;  // interpreted as "re-read and retry"
  }
  return OpOutcome::kDone;
}

// -- Core operation logic (Algorithms 4 & 5, Appendix C) -------------------

FasterKv::OpOutcome FasterKv::TryOp(Session& session, PendingOp& op,
                                    bool fresh, void* read_out) {
  const uint64_t hash = Hash64(op.key);
  const bool is_update = op.kind != OpKind::kRead;
  op.bucket = index_->BucketOf(hash);
  SharedLatch& latch = bucket_latches_[op.bucket];

  // Parked version-v operations always execute under prepare semantics:
  // they belong to the commit regardless of how far the thread has moved.
  const Phase behavior =
      op.version < session.version_ ? Phase::kPrepare : session.phase_;
  const uint32_t v_commit = (behavior == Phase::kPrepare ||
                             behavior == Phase::kRest)
                                ? op.version
                                : session.version_ - 1;
  const bool fine =
      options_.locking == CheckpointLocking::kFineGrained;

  bool latched_here = false;
  if (fine && behavior == Phase::kPrepare && is_update && fresh &&
      !op.holds_latch) {
    // Alg. 4: prepare-phase updates hold the bucket's shared latch; failing
    // to get it means the CPR shift began.
    if (!latch.TryLockShared()) return OpOutcome::kShift;
    latched_here = true;
  }
  auto release_here = [&] {
    if (latched_here) latch.UnlockShared();
  };
  auto keep_latch = [&] {
    if (latched_here) {
      op.holds_latch = true;
      latched_here = false;
    }
  };

  for (int attempt = 0; attempt < 64; ++attempt) {
    std::atomic<uint64_t>* entry;
    if (is_update) {
      entry = index_->FindOrCreateEntry(hash);
    } else {
      entry = index_->FindEntry(hash);
      if (entry == nullptr) {
        release_here();
        return OpOutcome::kNotFound;
      }
    }
    const uint64_t entry_word = entry->load(std::memory_order_acquire);
    const Address head = hlog_->head();
    const Address begin = hlog_->begin_address();

    // Walk the in-memory portion of the chain.
    Address addr = EntryWord::AddressOf(entry_word);
    Record* rec = nullptr;
    while (addr >= head) {
      Record* r = reinterpret_cast<Record*>(hlog_->Ptr(addr));
      if (!r->info.invalid() && r->key == op.key) {
        if (!is_update && !fresh && behavior == Phase::kPrepare &&
            IsNextVersion(r->info.version(), v_commit)) {
          // A parked v read skips (v+1) records for a CPR-clean value.
          addr = r->info.previous_address();
          continue;
        }
        rec = r;
        break;
      }
      addr = r->info.previous_address();
    }

    if (rec != nullptr) {
      // ---- Found in memory at `addr`. ----
      const bool next_ver = IsNextVersion(rec->info.version(), v_commit);
      if (behavior == Phase::kPrepare && next_ver) {
        release_here();
        return fresh ? OpOutcome::kShift : OpOutcome::kPendingRetry;
      }
      if (op.kind == OpKind::kRead) {
        if (rec->info.tombstone()) {
          release_here();
          return OpOutcome::kNotFound;
        }
        char* out = read_out != nullptr ? static_cast<char*>(read_out)
                                        : (op.value.resize(options_.value_size),
                                           op.value.data());
        std::memcpy(out, rec->value(), options_.value_size);
        release_here();
        return OpOutcome::kDone;
      }

      OpOutcome oc;
      if (behavior == Phase::kRest || behavior == Phase::kPrepare ||
          next_ver) {
        // Same-version update: dispatch purely on HybridLog region. Deletes
        // write a fresh tombstone at the tail without copying the base, so
        // the mutable/fuzzy gates do not apply to them.
        // A tombstone base cannot be revived in place (the bit lives in the
        // header); fall through to a fresh record.
        if (op.kind != OpKind::kDelete && !rec->info.tombstone()) {
          if (addr >= hlog_->read_only()) {
            ApplyInPlace(op, rec);
            release_here();
            return OpOutcome::kDone;
          }
          if (addr >= hlog_->safe_read_only()) {
            keep_latch();
            return OpOutcome::kPendingRetry;  // fuzzy region (§5.1)
          }
        }
        oc = CreateRecord(op, op.version, entry, entry_word, rec);
      } else {
        // behavior in {in-progress, wait-pending, wait-flush} and the
        // record is still version <= v: CPR version handoff (Alg. 5).
        if (fine) {
          if (behavior == Phase::kInProgress) {
            if (!latch.TryLockExclusive()) {
              return OpOutcome::kPendingRetry;
            }
            oc = CreateRecord(op, op.version, entry, entry_word, rec);
            latch.UnlockExclusive();
          } else if (behavior == Phase::kWaitPending) {
            if (latch.SharedCount() != 0) return OpOutcome::kPendingRetry;
            oc = CreateRecord(op, op.version, entry, entry_word, rec);
          } else {  // kWaitFlush
            oc = CreateRecord(op, op.version, entry, entry_word, rec);
          }
        } else {
          // Coarse-grained (App. C): copy only from the safe read-only
          // region, and only once no version-v operation is outstanding
          // (the latch-free variant has no per-bucket knowledge).
          if (behavior != Phase::kWaitFlush &&
              (addr >= hlog_->safe_read_only() ||
               pending_count_[v_commit & 1].load(std::memory_order_acquire) !=
                   0)) {
            return OpOutcome::kPendingRetry;
          }
          oc = CreateRecord(op, op.version, entry, entry_word, rec);
        }
      }
      if (oc == OpOutcome::kPendingRetry) continue;  // CAS race: re-read
      release_here();  // kDone, or kAllocStall (the op restarts from scratch)
      return oc;
    }

    if (addr < begin) {
      // ---- Not found anywhere. ----
      if (op.kind == OpKind::kRead || op.kind == OpKind::kDelete) {
        release_here();
        return OpOutcome::kNotFound;
      }
      const OpOutcome oc =
          CreateRecord(op, op.version, entry, entry_word, nullptr);
      if (oc == OpOutcome::kPendingRetry) continue;
      release_here();
      return oc;
    }

    // ---- Chain continues on disk (addr in [begin, head)). ----
    // The chain below addr is immutable, so while the walk still leaves
    // memory at the same address, the fetched record (addr itself or a
    // deeper hop) continues it.
    if (op.io_issued && op.io_done.load(std::memory_order_acquire) &&
        op.io_disk_entry == addr) {
      const Record* drec =
          reinterpret_cast<const Record*>(op.io_buffer.data());
      if (!drec->info.invalid() && drec->key == op.key) {
        if (op.kind == OpKind::kRead) {
          if (drec->info.tombstone()) {
            release_here();
            return OpOutcome::kNotFound;
          }
          char* out = read_out != nullptr
                          ? static_cast<char*>(read_out)
                          : (op.value.resize(options_.value_size),
                             op.value.data());
          std::memcpy(out, drec->value(), options_.value_size);
          release_here();
          return OpOutcome::kDone;
        }
        // Update based on a disk-resident (hence immutable, version <= v)
        // record: the same handoff gates as the immutable-region path.
        OpOutcome oc;
        const bool handoff = behavior >= Phase::kInProgress;
        if (!handoff) {
          oc = CreateRecord(op, op.version, entry, entry_word, drec);
        } else if (fine) {
          if (behavior == Phase::kInProgress) {
            if (!latch.TryLockExclusive()) return OpOutcome::kPendingRetry;
            oc = CreateRecord(op, op.version, entry, entry_word, drec);
            latch.UnlockExclusive();
          } else if (behavior == Phase::kWaitPending) {
            if (latch.SharedCount() != 0) return OpOutcome::kPendingRetry;
            oc = CreateRecord(op, op.version, entry, entry_word, drec);
          } else {
            oc = CreateRecord(op, op.version, entry, entry_word, drec);
          }
        } else {
          if (behavior != Phase::kWaitFlush &&
              pending_count_[v_commit & 1].load(std::memory_order_acquire) !=
                  0) {
            return OpOutcome::kPendingRetry;
          }
          oc = CreateRecord(op, op.version, entry, entry_word, drec);
        }
        if (oc == OpOutcome::kPendingRetry) continue;
        release_here();
        return oc;
      }
      // Key mismatch: follow the on-disk chain one hop deeper.
      const Address prev = drec->info.previous_address();
      if (prev < begin) {
        if (op.kind == OpKind::kRead || op.kind == OpKind::kDelete) {
          release_here();
          return OpOutcome::kNotFound;
        }
        const OpOutcome oc =
            CreateRecord(op, op.version, entry, entry_word, nullptr);
        if (oc == OpOutcome::kPendingRetry) continue;
        release_here();
        return oc;
      }
      op.io_address = prev;
      op.io_done.store(false, std::memory_order_relaxed);
      op.io_issued = false;
      keep_latch();
      return OpOutcome::kPendingIo;
    }
    op.io_address = addr;
    op.io_disk_entry = addr;
    keep_latch();
    return OpOutcome::kPendingIo;
  }
  // Pathological CAS contention; park and retry later.
  keep_latch();
  return OpOutcome::kPendingRetry;
}

// -- Public operations ------------------------------------------------------

OpStatus FasterKv::DriveFreshOp(Session& session, PendingOp& op,
                                void* read_out) {
  if (++session.ops_since_refresh_ >= options_.refresh_interval) {
    Refresh(session);
  }
  ++session.serial_;
  op.serial = session.serial_;
  session.inflight_serial_ = op.serial;
  while (true) {
    if (!op.holds_latch) op.version = session.version_;
    const OpOutcome oc = TryOp(session, op, /*fresh=*/true, read_out);
    switch (oc) {
      case OpOutcome::kDone:
        session.inflight_serial_ = 0;
        return OpStatus::kOk;
      case OpOutcome::kNotFound:
        session.inflight_serial_ = 0;
        return OpStatus::kNotFound;
      case OpOutcome::kShift:
      case OpOutcome::kAllocStall:
        // The refresh may cross the version boundary; inflight_serial_
        // keeps this half-executed operation out of the commit point (it
        // re-runs as a (v+1) operation).
        Refresh(session);
        continue;
      case OpOutcome::kPendingIo:
        session.inflight_serial_ = 0;  // parked: owns its pinned version
        ParkOp(session, op);
        IssueIo(session.pending_.back());
        return OpStatus::kPending;
      case OpOutcome::kPendingRetry:
        session.inflight_serial_ = 0;
        ParkOp(session, op);
        return OpStatus::kPending;
    }
  }
}

OpStatus FasterKv::Read(Session& session, uint64_t key, void* value_out) {
  PendingOp op;
  op.kind = OpKind::kRead;
  op.key = key;
  return DriveFreshOp(session, op, value_out);
}

OpStatus FasterKv::Upsert(Session& session, uint64_t key, const void* value) {
  PendingOp op;
  op.kind = OpKind::kUpsert;
  op.key = key;
  op.value.assign(static_cast<const char*>(value),
                  static_cast<const char*>(value) + options_.value_size);
  return DriveFreshOp(session, op, nullptr);
}

OpStatus FasterKv::Rmw(Session& session, uint64_t key, int64_t delta) {
  PendingOp op;
  op.kind = OpKind::kRmw;
  op.key = key;
  op.delta = delta;
  return DriveFreshOp(session, op, nullptr);
}

OpStatus FasterKv::Delete(Session& session, uint64_t key) {
  PendingOp op;
  op.kind = OpKind::kDelete;
  op.key = key;
  return DriveFreshOp(session, op, nullptr);
}

void FasterKv::ParkOp(Session& session, PendingOp& op) {
  session.pending_.emplace_back();
  PendingOp& p = session.pending_.back();
  p.kind = op.kind;
  p.key = op.key;
  p.delta = op.delta;
  p.value = std::move(op.value);
  p.serial = op.serial;
  p.version = op.version;
  p.holds_latch = op.holds_latch;
  p.bucket = op.bucket;
  p.io_address = op.io_address;
  p.io_disk_entry = op.io_disk_entry;
  if (p.kind != OpKind::kRead) {
    p.counted = true;
    pending_count_[p.version & 1].fetch_add(1, std::memory_order_acq_rel);
  }
}

void FasterKv::IssueIo(PendingOp& op) {
  op.io_issued = true;
  op.io_done.store(false, std::memory_order_relaxed);
  op.io_buffer.resize(record_size_);
  const Address address = op.io_address;
  char* buf = op.io_buffer.data();
  PendingOp* op_ptr = &op;  // stable: ops live in a std::list
  io_.Submit([this, address, buf, op_ptr] {
    hlog_->ReadRaw(address, buf, record_size_);
    op_ptr->io_done.store(true, std::memory_order_release);
  });
}

void FasterKv::FinalizeOp(Session& session, PendingOp& op, bool found) {
  if (op.holds_latch) {
    bucket_latches_[op.bucket].UnlockShared();
    op.holds_latch = false;
  }
  if (op.counted) {
    pending_count_[op.version & 1].fetch_sub(1, std::memory_order_acq_rel);
    op.counted = false;
  }
  if (session.async_callback_) {
    AsyncResult result;
    result.kind = op.kind;
    result.key = op.key;
    result.serial = op.serial;
    result.found = found;
    if (op.kind == OpKind::kRead && found) result.value = std::move(op.value);
    session.async_callback_(result);
  }
}

size_t FasterKv::CompletePending(Session& session, bool wait_for_all) {
  size_t completed = 0;
  while (true) {
    for (auto it = session.pending_.begin(); it != session.pending_.end();) {
      PendingOp& op = *it;
      if (op.io_issued && !op.io_done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      const OpOutcome oc = TryOp(session, op, /*fresh=*/false, nullptr);
      switch (oc) {
        case OpOutcome::kDone:
        case OpOutcome::kNotFound:
          FinalizeOp(session, op, oc == OpOutcome::kDone);
          it = session.pending_.erase(it);
          ++completed;
          continue;
        case OpOutcome::kPendingIo:
          IssueIo(op);
          break;
        case OpOutcome::kAllocStall:
          Refresh(session);
          break;
        case OpOutcome::kPendingRetry:
        case OpOutcome::kShift:
          break;
      }
      ++it;
    }
    if (!wait_for_all || session.pending_.empty()) break;
    Refresh(session);
    std::this_thread::yield();
  }
  return completed;
}

void FasterKv::AdvanceSerial(Session& session, uint64_t serial) {
  // Forward-only, owning-thread only. There is never an operation inline
  // (inflight_serial_ == 0), so the next version crossing simply reads the
  // advanced serial as this session's commit point.
  if (serial > session.serial_) session.serial_ = serial;
}

// -- Epoch / state-machine synchronization ----------------------------------

void FasterKv::Refresh(Session& session) {
  session.ops_since_refresh_ = 0;
  // Read the epoch before observing the state and publish that value: a
  // phase stored before any bump it covers is then seen first, so the slot
  // never acknowledges a transition it has not observed.
  const uint64_t observed = epoch_.current_epoch();
  ObserveState(session);
  epoch_.RefreshSlot(session.epoch_slot_, observed);
  TickStateMachine();
  // The refresh's drained actions or the tick may have moved the state on
  // (e.g. finished the commit); without a second look the session would
  // keep a stale in-flight phase while the store is at rest.
  ObserveState(session);
}

void FasterKv::ObserveState(Session& session) {
  const uint64_t st = state_.load(std::memory_order_acquire);
  const Phase ph = SystemState::PhaseOf(st);
  const uint32_t v = SystemState::VersionOf(st);
  const uint32_t effective = ph >= Phase::kInProgress ? v + 1 : v;
  if (session.phase_ != ph || session.version_ != effective) {
    if (session.version_ != effective) {
      // Crossing a version boundary demarcates this session's CPR point.
      // An operation still executing inline re-runs as (v+1), so it is
      // excluded; parked version-v operations complete during wait-pending
      // and stay included.
      const uint64_t point = session.inflight_serial_ != 0
                                 ? session.inflight_serial_ - 1
                                 : session.serial_;
      session.cpr_point_serial_.store(point, std::memory_order_release);
    }
    if (options_.locking == CheckpointLocking::kFineGrained &&
        ph == Phase::kPrepare && session.phase_ != Phase::kPrepare) {
      // Entering prepare — possibly directly from the tail phases of the
      // previous commit when commits run back-to-back.
      // Entering prepare: acquire shared latches for requests already
      // pending (§6.2.1) so the in-progress handoff cannot overtake them.
      for (PendingOp& p : session.pending_) {
        if (p.kind != OpKind::kRead && !p.holds_latch &&
            p.version == effective) {
          SharedLatch& latch = bucket_latches_[p.bucket];
          while (!latch.TryLockShared()) {
          }
          p.holds_latch = true;
        }
      }
    }
    session.phase_ = ph;
    session.version_ = effective;
  }
}

void FasterKv::TickStateMachine() {
  uint64_t st = state_.load(std::memory_order_acquire);
  if (SystemState::PhaseOf(st) == Phase::kWaitPending &&
      pending_count_[SystemState::VersionOf(st) & 1].load(
          std::memory_order_acquire) == 0) {
    EnterWaitFlush(st);
    st = state_.load(std::memory_order_acquire);
  }
  if (SystemState::PhaseOf(st) == Phase::kWaitFlush) {
    const bool flush_done =
        ckpt_.variant == CommitVariant::kFoldOver
            ? hlog_->flushed_until() >= ckpt_.lhe
            : snapshot_done_.load(std::memory_order_acquire);
    if (flush_done && index_completed_token_.load(
                          std::memory_order_acquire) >= ckpt_.index_token) {
      FinalizeCheckpoint(st);
    }
  }
}

void FasterKv::EnterWaitFlush(uint64_t expected_state) {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  if (state_.load(std::memory_order_acquire) != expected_state) return;
  ClosePhaseSpan("wait_pending", phase_wait_pending_ns_, NowNanos());
  const uint32_t v = SystemState::VersionOf(expected_state);
  if (ckpt_.variant == CommitVariant::kFoldOver) {
    // All unflushed v-records fold into the read-only region and flush via
    // the normal page path.
    ckpt_.lhe = hlog_->ShiftReadOnlyToTail();
  } else {
    // Snapshot: dump the volatile region [flushed, Lhe) to a side file;
    // the log stays open for in-place updates right after.
    ckpt_.lhe = hlog_->tail();
    ckpt_.snapshot_start = std::min(hlog_->flushed_until(), ckpt_.lhe);
    hlog_->SetEvictionFloor(ckpt_.snapshot_start);
    snapshot_done_.store(false, std::memory_order_release);
    const Address from = ckpt_.snapshot_start;
    const Address to = ckpt_.lhe;
    const std::string path = SnapshotPath(options_.dir, ckpt_.token);
    const bool sync = options_.sync_to_disk;
    const uint64_t trace_id = ckpt_.token;
    io_.Submit([this, from, to, path, sync, trace_id] {
      obs::ScopedSpan span(obs::Tracer::Default(), "faster", "snapshot_flush",
                           trace_id);
      std::vector<char> buf(to - from);
      const uint64_t page_size = hlog_->page_size();
      Address a = from;
      while (a < to) {
        const Address chunk_end =
            std::min<Address>(to, (a & ~(page_size - 1)) + page_size);
        std::memcpy(buf.data() + (a - from), hlog_->Ptr(a), chunk_end - a);
        a = chunk_end;
      }
      const Status s =
          RetryIo([&] { return WriteCheckedBlob(path, kSnapMagic, buf, sync); });
      if (!s.ok()) snapshot_failed_.store(true, std::memory_order_release);
      hlog_->SetEvictionFloor(kMaxAddress);
      // Done even on failure: the state machine must reach FinalizeCheckpoint
      // so the attempt concludes as failed instead of wedging in wait-flush.
      snapshot_done_.store(true, std::memory_order_release);
    });
  }
  state_.store(SystemState::Pack(Phase::kWaitFlush, v),
               std::memory_order_release);
}

std::vector<SessionCommitPoint> FasterKv::CollectCommitPoints() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<SessionCommitPoint> points;
  for (const auto& s : sessions_) {
    points.push_back(SessionCommitPoint{
        s->guid_, s->cpr_point_serial_.load(std::memory_order_acquire)});
  }
  for (const SessionCommitPoint& p : parted_points_) points.push_back(p);
  parted_points_.clear();
  return points;
}

void FasterKv::FinalizeCheckpoint(uint64_t expected_state) {
  CheckpointCallback callback;
  uint64_t token;
  std::vector<SessionCommitPoint> points;
  bool success = true;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (state_.load(std::memory_order_acquire) != expected_state) return;
    ClosePhaseSpan("wait_flush", phase_wait_flush_ns_, NowNanos());
    phase_start_ns_.store(0, std::memory_order_relaxed);  // round over
    const uint32_t v = SystemState::VersionOf(expected_state);
    ckpt_.points = CollectCommitPoints();
    ckpt_.flushed = ckpt_.variant == CommitVariant::kFoldOver
                        ? ckpt_.lhe
                        : ckpt_.snapshot_start;
    Status s;
    if (snapshot_failed_.load(std::memory_order_acquire)) {
      s = Status::IoError("snapshot write failed");
    } else if (index_failed_.load(std::memory_order_acquire)) {
      s = Status::IoError("index checkpoint write failed");
    } else {
      s = RetryIo([&] { return PersistCheckpointMetadata(ckpt_); });
    }
    success = s.ok();
    token = ckpt_.token;
    points = ckpt_.points;
    callback = std::move(ckpt_callback_);
    ckpt_callback_ = nullptr;
    if (success) {
      std::lock_guard<std::mutex> dlock(durable_mu_);
      for (const SessionCommitPoint& p : points) {
        durable_points_[p.guid] = p.serial;
      }
    }
    if (success) {
      last_completed_token_.store(token, std::memory_order_release);
    } else {
      // Graceful degradation: the commit concludes as FAILED. The previous
      // checkpoint stays the durable one (LATEST untouched), durable points
      // do not advance, and waiters/serving layers observe the failure via
      // LastFinishedToken()/CheckpointFailures() rather than hanging. The
      // version still shifts — the in-memory store moved to v+1 and the next
      // checkpoint captures everything since the last durable one.
      checkpoint_failures_.fetch_add(1, std::memory_order_acq_rel);
      ckpt_failures_total_->Add(1);
    }
    last_finished_token_.store(token, std::memory_order_release);
    state_.store(SystemState::Pack(Phase::kRest, v + 1),
                 std::memory_order_release);
  }
  if (success) GarbageCollectCheckpoints();
  if (success && callback) callback(token, points);
}

// -- Checkpoint entry points -------------------------------------------------

bool FasterKv::Checkpoint(CommitVariant variant, bool include_index,
                          CheckpointCallback callback, uint64_t* token_out) {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    uint64_t st = state_.load(std::memory_order_acquire);
    if (SystemState::PhaseOf(st) != Phase::kRest) return false;
    const uint32_t v = SystemState::VersionOf(st);
    if (!state_.compare_exchange_strong(st,
                                        SystemState::Pack(Phase::kPrepare, v),
                                        std::memory_order_acq_rel)) {
      return false;
    }
    ckpt_ = CheckpointMetadata();
    ckpt_.token = NowNanos();
    ckpt_.version = v;
    ckpt_.variant = variant;
    ckpt_.lhs = hlog_->tail();
    ckpt_.begin = hlog_->begin_address();
    ckpt_callback_ = std::move(callback);
    trace_token_.store(ckpt_.token, std::memory_order_relaxed);
    phase_start_ns_.store(ckpt_.token, std::memory_order_relaxed);
    ckpts_started_total_->Add(1);
    snapshot_done_.store(false, std::memory_order_release);
    snapshot_failed_.store(false, std::memory_order_release);
    index_failed_.store(false, std::memory_order_release);

    if (include_index || last_index_token_ == 0) {
      uint64_t index_token = 0;
      DoIndexCheckpoint(&index_token);
      ckpt_.index_token = index_token;
    } else {
      // Reuse the most recent completed index checkpoint (log-only commit).
      ckpt_.index_token = last_index_token_;
    }
    if (token_out != nullptr) *token_out = ckpt_.token;
  }

  // The bump happens outside ckpt_mu_: with no protected threads the
  // chained trigger actions run inline all the way through EnterWaitFlush,
  // which takes the mutex itself.
  epoch_.BumpEpoch([this] {
    // All sessions are in prepare (and hold latches for their pendings).
    const uint64_t s1 = state_.load(std::memory_order_acquire);
    ClosePhaseSpan("prepare", phase_prepare_ns_, NowNanos());
    state_.store(
        SystemState::Pack(Phase::kInProgress, SystemState::VersionOf(s1)),
        std::memory_order_release);
    epoch_.BumpEpoch([this] {
      // All sessions crossed their CPR points.
      const uint64_t s2 = state_.load(std::memory_order_acquire);
      ClosePhaseSpan("in_progress", phase_in_progress_ns_, NowNanos());
      state_.store(
          SystemState::Pack(Phase::kWaitPending, SystemState::VersionOf(s2)),
          std::memory_order_release);
      TickStateMachine();
    });
  });
  return true;
}

bool FasterKv::DoIndexCheckpoint(uint64_t* token_out) {
  // Fuzzy copy: concurrent operations keep running; entries are captured
  // with atomic reads. Li (recorded after the copy) upper-bounds every
  // address the image can reference.
  auto image = std::make_shared<std::vector<char>>();
  const uint64_t num_overflow = index_->overflow_in_use();
  index_->FuzzyCopy(image.get());
  const Address li = hlog_->tail();
  const uint64_t token = NowNanos();
  const std::string path = IndexPath(options_.dir, token);
  const uint64_t num_buckets = index_->num_buckets();
  const bool sync = options_.sync_to_disk;
  io_.Submit([this, image, li, token, path, num_buckets, num_overflow, sync] {
    obs::ScopedSpan span(obs::Tracer::Default(), "faster", "index_flush",
                         token);
    std::vector<char> payload;
    payload.reserve(sizeof(Address) + 2 * sizeof(uint64_t) + image->size());
    AppendPod(payload, li);
    AppendPod(payload, num_buckets);
    AppendPod(payload, num_overflow);
    payload.insert(payload.end(), image->begin(), image->end());
    const Status s = RetryIo(
        [&] { return WriteCheckedBlob(path, kIndexMagic, payload, sync); });
    // Two index writes can be in flight (a standalone CheckpointIndex and
    // the commit that followed it) and finish out of order: both tokens only
    // move forward, so an older image landing last changes nothing.
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      if (token > last_index_token_) {
        last_index_token_ = token;
        last_index_li_ = li;
      }
    } else {
      // Keep the previous good image for future log-only commits; the
      // in-flight checkpoint that wanted this one fails.
      index_failed_.store(true, std::memory_order_release);
    }
    uint64_t done = index_completed_token_.load(std::memory_order_relaxed);
    while (done < token && !index_completed_token_.compare_exchange_weak(
                               done, token, std::memory_order_release,
                               std::memory_order_relaxed)) {
    }
  });
  if (token_out != nullptr) *token_out = token;
  return true;
}

bool FasterKv::CheckpointIndex(uint64_t* token_out) {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  if (SystemState::PhaseOf(state_.load(std::memory_order_acquire)) !=
      Phase::kRest) {
    return false;
  }
  return DoIndexCheckpoint(token_out);
}

Status FasterKv::WaitForCheckpoint(uint64_t token) {
  // Tokens are monotonic (issued from a monotonic clock); a later commit
  // completing first must not strand the waiter. Waiting on the *finished*
  // token means a failed checkpoint returns an error instead of hanging.
  while (last_finished_token_.load(std::memory_order_acquire) < token) {
    epoch_.TickUnprotected();
    TickStateMachine();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (last_completed_token_.load(std::memory_order_acquire) >= token) {
    return Status::Ok();
  }
  return Status::IoError("checkpoint " + std::to_string(token) +
                         " failed persistently");
}

bool FasterKv::CheckpointInProgress() const {
  return SystemState::PhaseOf(state_.load(std::memory_order_acquire)) !=
         Phase::kRest;
}

uint32_t FasterKv::CurrentVersion() const {
  return SystemState::VersionOf(state_.load(std::memory_order_acquire));
}

Phase FasterKv::CurrentPhase() const {
  return SystemState::PhaseOf(state_.load(std::memory_order_acquire));
}

// -- Checkpoint metadata I/O -------------------------------------------------

Status FasterKv::RetryIo(const std::function<Status()>& attempt) {
  const uint32_t attempts =
      std::max<uint32_t>(1, options_.checkpoint_retry_attempts);
  uint64_t delay = options_.checkpoint_retry_backoff_ms;
  Status s;
  for (uint32_t i = 0; i < attempts; ++i) {
    if (i > 0 && delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      delay = std::min<uint64_t>(delay * 2, 1000);
    }
    s = attempt();
    if (s.ok()) return s;
  }
  return s;
}

Status FasterKv::PersistCheckpointMetadata(const CheckpointMetadata& meta) {
  std::vector<char> buf;
  AppendPod(buf, meta.token);
  AppendPod(buf, meta.version);
  AppendPod(buf, static_cast<uint8_t>(meta.variant));
  AppendPod(buf, meta.lhs);
  AppendPod(buf, meta.lhe);
  AppendPod(buf, meta.flushed);
  AppendPod(buf, meta.snapshot_start);
  AppendPod(buf, meta.begin);
  AppendPod(buf, meta.index_token);
  AppendPod(buf, static_cast<uint64_t>(meta.points.size()));
  for (const SessionCommitPoint& p : meta.points) {
    AppendPod(buf, p.guid);
    AppendPod(buf, p.serial);
  }
  Status s = WriteCheckedBlob(MetaPath(options_.dir, meta.token), kMetaMagic,
                              buf, options_.sync_to_disk);
  if (!s.ok()) return s;
  // Shared durable-publication helper: tmp + sync + rename + parent fsync.
  return PublishLatest(options_.dir, std::to_string(meta.token),
                       options_.sync_to_disk);
}

Status FasterKv::LoadCheckpointMetadata(uint64_t token,
                                        CheckpointMetadata* meta) {
  std::vector<char> buf;
  Status s = ReadCheckedBlob(MetaPath(options_.dir, token), kMetaMagic, &buf);
  if (!s.ok()) return s;
  size_t off = 0;
  uint8_t variant = 0;
  uint64_t num_points = 0;
  if (!ConsumePod(buf, &off, &meta->token) ||
      !ConsumePod(buf, &off, &meta->version) ||
      !ConsumePod(buf, &off, &variant) || !ConsumePod(buf, &off, &meta->lhs) ||
      !ConsumePod(buf, &off, &meta->lhe) ||
      !ConsumePod(buf, &off, &meta->flushed) ||
      !ConsumePod(buf, &off, &meta->snapshot_start) ||
      !ConsumePod(buf, &off, &meta->begin) ||
      !ConsumePod(buf, &off, &meta->index_token) ||
      !ConsumePod(buf, &off, &num_points)) {
    return Status::Corruption("truncated checkpoint metadata");
  }
  meta->variant = static_cast<CommitVariant>(variant);
  meta->points.clear();
  for (uint64_t i = 0; i < num_points; ++i) {
    SessionCommitPoint p;
    if (!ConsumePod(buf, &off, &p.guid) || !ConsumePod(buf, &off, &p.serial)) {
      return Status::Corruption("truncated commit points");
    }
    meta->points.push_back(p);
  }
  if (meta->token != token) {
    return Status::Corruption("checkpoint metadata names wrong token");
  }
  return Status::Ok();
}

void FasterKv::PinCheckpointTokens(std::set<uint64_t> tokens) {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  pinned_tokens_ = std::move(tokens);
}

void FasterKv::GarbageCollectCheckpoints() {
  const uint32_t retain = options_.retain_checkpoints;
  if (retain == 0) return;
  const std::vector<uint64_t> tokens = ListCheckpointTokens(options_.dir);
  if (tokens.size() <= retain) return;

  // Index images referenced by a retained generation must survive even if
  // they were taken for an older commit (log-only commits reuse them).
  std::set<uint64_t> keep_ckpt(tokens.begin(), tokens.begin() + retain);
  {
    // Externally pinned generations (retained cross-shard manifests) are
    // kept no matter how far the retain window has moved past them.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    keep_ckpt.insert(pinned_tokens_.begin(), pinned_tokens_.end());
  }
  std::set<uint64_t> keep_index;
  for (uint64_t t : keep_ckpt) {
    CheckpointMetadata meta;
    if (LoadCheckpointMetadata(t, &meta).ok()) {
      keep_index.insert(meta.index_token);
    }
  }
  {
    // The image the next log-only commit would reuse stays too.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (last_index_token_ != 0) keep_index.insert(last_index_token_);
  }

  std::vector<std::string> names;
  if (!ListDirectory(options_.dir, &names).ok()) return;
  for (const std::string& name : names) {
    uint64_t t = 0;
    if (ParseTokenFile(name, "ckpt.", ".meta", &t) ||
        ParseTokenFile(name, "ckpt.", ".snap", &t)) {
      if (keep_ckpt.count(t) == 0) {
        RemoveFileIfExists(options_.dir + "/" + name);
      }
    } else if (ParseTokenFile(name, "index.", ".dat", &t)) {
      if (keep_index.count(t) == 0) {
        RemoveFileIfExists(options_.dir + "/" + name);
      }
    }
  }
}

Status FasterKv::TruncateLogUntil(Address until) {
  return hlog_->ShiftBeginAddress(until);
}

Status FasterKv::ScanLog(const ScanVisitor& visitor) {
  const Address begin = hlog_->begin_address();
  const Address end = hlog_->tail();
  const Address head = hlog_->head();
  const uint64_t page_size = hlog_->page_size();
  std::vector<char> page(page_size);
  for (Address page_start = begin & ~(page_size - 1); page_start < end;
       page_start += page_size) {
    const Address from = std::max(begin, page_start);
    const Address to = std::min(end, page_start + page_size);
    const char* base;
    if (from >= head) {
      base = hlog_->Ptr(page_start);
    } else {
      // Disk-resident (fully flushed by the eviction invariant).
      Status s = hlog_->ReadRaw(from, page.data() + (from - page_start),
                                static_cast<uint32_t>(to - from));
      if (!s.ok()) return s;
      base = page.data();
    }
    for (Address addr = from; addr + record_size_ <= to;
         addr += record_size_) {
      const Record* rec =
          reinterpret_cast<const Record*>(base + (addr - page_start));
      if (rec->info.empty() || rec->info.invalid()) continue;
      if (!visitor(addr, *rec, rec->value())) return Status::Ok();
    }
  }
  return Status::Ok();
}

Status FasterKv::CompactLog(Session& session, Address until,
                            uint64_t* relocated) {
  if (until > hlog_->head()) {
    return Status::InvalidArgument(
        "compaction region must be disk-resident (until <= head)");
  }
  uint64_t moved = 0;
  Status scan_status = ScanLog([&](Address addr, const Record& rec,
                                   const char* value) {
    if (addr >= until) return false;  // done with the prefix
    if (rec.info.tombstone()) return true;
    const uint64_t hash = Hash64(rec.key);
    std::atomic<uint64_t>* entry = index_->FindEntry(hash);
    if (entry == nullptr) return true;
    // Liveness: is this record still the chain's latest version of its key?
    const uint64_t word = entry->load(std::memory_order_acquire);
    Address walk = EntryWord::AddressOf(word);
    const Address head = hlog_->head();
    bool live = false;
    while (walk >= hlog_->begin_address()) {
      const Record* r;
      std::vector<char> buf;
      if (walk >= head) {
        r = reinterpret_cast<const Record*>(hlog_->Ptr(walk));
      } else {
        buf.resize(record_size_);
        if (!hlog_->ReadRaw(walk, buf.data(), record_size_).ok()) break;
        r = reinterpret_cast<const Record*>(buf.data());
      }
      if (!r->info.invalid() && r->key == rec.key) {
        live = walk == addr && !r->info.tombstone();
        break;
      }
      walk = r->info.previous_address();
    }
    if (!live) return true;
    // Rewrite at the tail as an ordinary upsert of the scanned value. A CAS
    // race means a fresher update landed concurrently — even better.
    PendingOp op;
    op.kind = OpKind::kUpsert;
    op.key = rec.key;
    op.value.assign(value, value + options_.value_size);
    op.version = session.version_;
    while (true) {
      std::atomic<uint64_t>* e = index_->FindOrCreateEntry(hash);
      const uint64_t w = e->load(std::memory_order_acquire);
      if (EntryWord::AddressOf(w) != addr) break;  // superseded meanwhile
      const OpOutcome oc = CreateRecord(op, op.version, e, w, nullptr);
      if (oc == OpOutcome::kDone) {
        ++moved;
        break;
      }
      if (oc == OpOutcome::kAllocStall) {
        Refresh(session);
        op.version = session.version_;
        continue;
      }
      // kPendingRetry: entry changed under us — re-check liveness via loop.
    }
    return true;
  });
  if (!scan_status.ok()) return scan_status;
  if (relocated != nullptr) *relocated = moved;
  return TruncateLogUntil(until);
}

void FasterKv::DebugDumpPending(Session& session) const {
  for (const PendingOp& op : session.pending_) {
    const uint64_t hash = Hash64(op.key);
    std::atomic<uint64_t>* entry = index_->FindEntry(hash);
    uint64_t word = entry != nullptr ? entry->load() : 0;
    Address addr = EntryWord::AddressOf(word);
    uint32_t head_ver = 9999;
    uint64_t head_key = 0;
    bool head_invalid = false;
    if (addr >= hlog_->head()) {
      const Record* r =
          reinterpret_cast<const Record*>(
              const_cast<HybridLog*>(hlog_.get())->Ptr(addr));
      head_ver = r->info.version();
      head_key = r->key;
      head_invalid = r->info.invalid();
    }
    std::fprintf(
        stderr,
        "  op kind=%d key=%llu ver=%u serial=%llu latch=%d counted=%d "
        "io(iss=%d done=%d addr=%llu) chainhead addr=%llu key=%llu ver=%u "
        "inv=%d shared=%llu\n",
        (int)op.kind, (unsigned long long)op.key, op.version,
        (unsigned long long)op.serial, (int)op.holds_latch, (int)op.counted,
        (int)op.io_issued, (int)op.io_done.load(),
        (unsigned long long)op.io_address, (unsigned long long)addr,
        (unsigned long long)head_key, head_ver, (int)head_invalid,
        (unsigned long long)bucket_latches_[op.bucket].SharedCount());
  }
}

// -- Recovery (Alg. 3) -------------------------------------------------------

Status FasterKv::Recover() {
  // Candidate generations: the LATEST hint first (the common case), then
  // every on-disk generation newest-first. A generation whose artifacts are
  // torn, bit-flipped, or missing is skipped and the next one is attempted —
  // recovery lands on the newest *valid* CPR-consistent prefix instead of
  // failing or silently loading garbage.
  std::vector<uint64_t> candidates;
  uint64_t hint = 0;
  std::string text;
  if (ReadLatestValue(options_.dir, &text).ok()) {
    hint = std::strtoull(text.c_str(), nullptr, 10);
  }
  if (hint != 0) candidates.push_back(hint);
  for (uint64_t t : ListCheckpointTokens(options_.dir)) {
    if (t != hint) candidates.push_back(t);
  }
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint in " + options_.dir);
  }
  Status last =
      Status::Corruption("no valid checkpoint generation in " + options_.dir);
  for (uint64_t token : candidates) {
    const Status s = RecoverFromToken(token);
    if (s.ok()) return s;
    last = s;
  }
  // Configuration errors (e.g. an index-size mismatch) keep their code so
  // callers can tell "wrong options" from "corrupt store".
  if (last.code() != Status::Code::kCorruption) return last;
  return Status::Corruption("no valid checkpoint generation in " +
                            options_.dir + " (last error: " + last.message() +
                            ")");
}

Status FasterKv::Recover(uint64_t token) { return RecoverFromToken(token); }

Status FasterKv::ValidateCheckpoint(uint64_t token) {
  CheckpointMetadata meta;
  Status s = LoadCheckpointMetadata(token, &meta);
  if (!s.ok()) return s;
  s = ProbeCheckedBlob(IndexPath(options_.dir, meta.index_token), kIndexMagic);
  if (!s.ok()) return s;
  if (meta.variant == CommitVariant::kSnapshot) {
    s = ProbeCheckedBlob(SnapshotPath(options_.dir, meta.token), kSnapMagic);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status FasterKv::RecoverFromToken(uint64_t token) {
  // 1. Checkpoint metadata (checksummed blob).
  CheckpointMetadata meta;
  Status s = LoadCheckpointMetadata(token, &meta);
  if (!s.ok()) return s;

  // 2. Fuzzy index image.
  std::vector<char> payload;
  s = ReadCheckedBlob(IndexPath(options_.dir, meta.index_token), kIndexMagic,
                      &payload);
  if (!s.ok()) return s;
  Address li = 0;
  uint64_t num_buckets = 0, num_overflow = 0;
  size_t poff = 0;
  if (!ConsumePod(payload, &poff, &li) ||
      !ConsumePod(payload, &poff, &num_buckets) ||
      !ConsumePod(payload, &poff, &num_overflow)) {
    return Status::Corruption("index image header truncated");
  }
  if (num_buckets != index_->num_buckets()) {
    return Status::InvalidArgument(
        "index_buckets option does not match the checkpoint");
  }
  // Clear first: a previous failed candidate attempt may have left overflow
  // entries behind, and LoadFrom only overwrites what the image covers.
  index_->Clear();
  s = index_->LoadFrom(payload.data() + poff, payload.size() - poff,
                       num_overflow);
  if (!s.ok()) return s;

  // 3. Scan [S, E) of the log, fixing the index (Alg. 3).
  const Address S = std::min(li, meta.lhs);
  const Address E = meta.lhe;
  const uint32_t v = meta.version;
  const uint64_t page_size = hlog_->page_size();

  if (meta.variant == CommitVariant::kSnapshot) {
    // Materialize the snapshot region into the log file first: the volatile
    // portion [snapshot_start, Lhe) was captured only in the side file.
    std::vector<char> buf;
    s = ReadCheckedBlob(SnapshotPath(options_.dir, meta.token), kSnapMagic,
                        &buf);
    if (!s.ok()) return s;
    const uint64_t len = meta.lhe - meta.snapshot_start;
    if (buf.size() != len) {
      return Status::Corruption("snapshot size does not match metadata");
    }
    if (len > 0) {
      s = hlog_->WriteRaw(meta.snapshot_start, buf.data(),
                          static_cast<uint32_t>(len));
      if (!s.ok()) return s;
    }
  }

  std::vector<char> page(page_size);
  for (Address page_start = S & ~(page_size - 1); page_start < E;
       page_start += page_size) {
    const Address from = std::max(S, page_start);
    const Address to = std::min(E, page_start + page_size);
    s = hlog_->ReadRaw(from, page.data() + (from - page_start),
                       static_cast<uint32_t>(to - from));
    if (!s.ok()) return s;

    bool dirty = false;
    for (Address addr = from; addr + record_size_ <= to;
         addr += record_size_) {
      Record* rec =
          reinterpret_cast<Record*>(page.data() + (addr - page_start));
      if (rec->info.empty() || rec->info.invalid()) continue;
      std::atomic<uint64_t>* entry =
          index_->FindOrCreateEntry(Hash64(rec->key));
      const uint64_t w = entry->load(std::memory_order_relaxed);
      if (!IsNextVersion(rec->info.version(), v)) {
        // Version <= v: part of the commit; becomes the slot's latest.
        entry->store(EntryWord::Make(addr, EntryWord::TagOf(w), false),
                     std::memory_order_relaxed);
      } else {
        // (v+1) record: not committed. Invalidate it, and if the fuzzy
        // index points at or beyond it, rewind to its predecessor.
        rec->info.set_invalid();
        dirty = true;
        if (EntryWord::AddressOf(w) >= addr) {
          entry->store(EntryWord::Make(rec->info.previous_address(),
                                       EntryWord::TagOf(w), false),
                       std::memory_order_relaxed);
        }
      }
    }
    if (dirty) {
      s = hlog_->WriteRaw(from, page.data() + (from - page_start),
                          static_cast<uint32_t>(to - from));
      if (!s.ok()) return s;
    }
  }

  // 4. Resume the log at E and restore session commit points.
  s = hlog_->ResetForRecovery(E);
  if (!s.ok()) return s;
  if (meta.begin != 0) {
    s = hlog_->ShiftBeginAddress(meta.begin);
    if (!s.ok()) return s;
  }
  recovered_points_.clear();
  {
    std::lock_guard<std::mutex> dlock(durable_mu_);
    durable_points_.clear();
    for (const SessionCommitPoint& p : meta.points) {
      recovered_points_[p.guid] = p.serial;
      durable_points_[p.guid] = p.serial;
    }
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    last_index_token_ = meta.index_token;
    last_index_li_ = li;
  }
  // The recovered index checkpoint is durable by definition; log-only
  // commits may reuse it immediately.
  index_completed_token_.store(meta.index_token, std::memory_order_release);
  last_completed_token_.store(meta.token, std::memory_order_release);
  last_finished_token_.store(meta.token, std::memory_order_release);
  state_.store(SystemState::Pack(Phase::kRest, v + 1),
               std::memory_order_release);
  return Status::Ok();
}

}  // namespace cpr::faster
