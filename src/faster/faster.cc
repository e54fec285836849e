#include "faster/faster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "io/blob.h"
#include "io/file.h"
#include "io/generations.h"
#include "io/retry.h"
#include "util/clock.h"
#include "util/hash.h"
#include "util/pod.h"

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

// The three generation chains of a store directory. Only the meta chain
// publishes LATEST; snapshots and index images are found through a meta.
GenerationChain MetaChain(const std::string& dir) {
  return GenerationChain(dir, "ckpt.", ".meta", LatestForm::kNumber);
}
GenerationChain SnapshotChain(const std::string& dir) {
  return GenerationChain(dir, "ckpt.", ".snap");
}
GenerationChain IndexChain(const std::string& dir) {
  return GenerationChain(dir, "index.", ".dat");
}

obs::Counter* PhaseNs(const char* phase) {
  return obs::MetricsRegistry::Default().GetCounter(
      std::string("cpr_faster_checkpoint_phase_ns_total{phase=\"") + phase +
      "\"}");
}

}  // namespace

bool FasterKv::HoldsCheckpoint(const std::string& dir) {
  return !MetaChain(dir).List().empty();
}

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
  uint64_t newest = 0;
  for (const GenerationChain& chain :
       {MetaChain(options_.dir), SnapshotChain(options_.dir),
        IndexChain(options_.dir)}) {
    const std::vector<uint64_t> tokens = chain.List();
    if (!tokens.empty()) newest = std::max(newest, tokens.front());
  }
  next_token_.store(newest + 1, std::memory_order_relaxed);
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
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const uint64_t st = state_.load(std::memory_order_acquire);
  const Phase ph = SystemState::PhaseOf(st);
  const uint32_t v = SystemState::VersionOf(st);
  raw->phase_ = ph;
  raw->version_ = ph >= Phase::kInProgress ? v + 1 : v;
  if (auto it = stopped_.find(raw->guid_); it != stopped_.end()) {
    // A stopped session resumes at its final serial. If it stopped during
    // the commit still in flight, that commit keeps the point it was given.
    const StoppedSession& stopped = it->second;
    raw->serial_ = stopped.serial;
    raw->cpr_point_serial_.store(
        ph != Phase::kRest && stopped.version == v ? stopped.point
                                                   : stopped.serial,
        std::memory_order_relaxed);
    stopped_.erase(it);
  } else if (auto rec = recovered_points_.find(raw->guid_);
             rec != recovered_points_.end()) {
    // A recovered session resumes its serial numbering at the recovered
    // commit point, so new operations extend the durable prefix instead
    // of renumbering it.
    raw->serial_ = rec->second;
    raw->cpr_point_serial_.store(rec->second, std::memory_order_relaxed);
  }
  sessions_.push_back(std::move(session));
  return raw;
}

void FasterKv::StopSession(Session* session) {
  const int32_t slot = session->epoch_slot_;
  CompletePending(*session, /*wait_for_all=*/true);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    StoppedSession& stopped = stopped_[session->guid_];
    stopped = StoppedSession{session->serial_, 0, 0};
    const uint64_t st = state_.load(std::memory_order_acquire);
    if (SystemState::PhaseOf(st) != Phase::kRest) {
      // The commit in flight gets the session's point for its version.
      stopped.version = SystemState::VersionOf(st);
      stopped.point =
          session->phase_ <= Phase::kPrepare
              ? session->serial_
              : session->cpr_point_serial_.load(std::memory_order_acquire);
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
    // Word by word with relaxed atomic stores: a snapshot flush may be
    // copying this record concurrently (see EnterWaitFlush). The value area
    // is padded to whole words; the padding takes zeros.
    auto* words = reinterpret_cast<uint64_t*>(rec->value());
    for (uint32_t off = 0; off < options_.value_size; off += 8) {
      uint64_t w = 0;
      std::memcpy(&w, op.value.data() + off,
                  std::min<uint32_t>(8, options_.value_size - off));
      std::atomic_ref<uint64_t>(words[off / 8])
          .store(w, std::memory_order_relaxed);
    }
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
  HybridLog::Stall stall = HybridLog::Stall::kNone;
  const Address address = hlog_->Allocate(record_size_, &stall);
  if (address == kInvalidAddress) {
    return stall == HybridLog::Stall::kAwaitFlush ? OpOutcome::kFlushStall
                                                  : OpOutcome::kAllocStall;
  }
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
  // A stalled append keeps its prepare-phase latch: the op stays a
  // version-v op, and without the latch an in-progress session could write
  // (v+1) over its key (§6.2.1), leaving the parked op to retry forever.
  auto settle = [&](OpOutcome oc) {
    if (oc == OpOutcome::kAllocStall || oc == OpOutcome::kFlushStall) {
      keep_latch();
    } else {
      release_here();
    }
    return oc;
  };
  // Creates a record over an immutable base: below the mutable region, on
  // disk, or none at all. From in-progress on this is the CPR version
  // handoff (Alg. 5; App. C for coarse-grained): while a version-v op may
  // still be pending on the bucket it yields kPendingRetry with *gated set,
  // and the op parks. An absent base is gated too, or a (v+1) insert would
  // overtake a parked v insert of the same key.
  auto create_handoff = [&](std::atomic<uint64_t>* entry, uint64_t entry_word,
                            const Record* base, bool coarse_wait,
                            bool* gated) {
    *gated = true;
    if (behavior >= Phase::kInProgress && behavior != Phase::kWaitFlush) {
      if (fine && behavior == Phase::kInProgress) {
        if (!latch.TryLockExclusive()) return OpOutcome::kPendingRetry;
        const OpOutcome oc =
            CreateRecord(op, op.version, entry, entry_word, base);
        latch.UnlockExclusive();
        *gated = false;
        return oc;
      }
      if (fine ? latch.SharedCount() != 0
               : coarse_wait || pending_count_[v_commit & 1].load(
                                    std::memory_order_acquire) != 0) {
        return OpOutcome::kPendingRetry;
      }
    }
    *gated = false;
    return CreateRecord(op, op.version, entry, entry_word, base);
  };

  if (fresh && !session.pending_.empty() &&
      KeyParkedBefore(session, session.pending_.end(), op.key)) {
    // Session order per key: never overtake this session's parked op on
    // the same key; wait behind it (with the latch, in prepare).
    op.behind = true;
    keep_latch();
    return OpOutcome::kPendingRetry;
  }

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
      bool gated = false;
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
        // record is still version <= v. Coarse-grained copies only from the
        // safe read-only region (the latch-free variant has no per-bucket
        // knowledge).
        oc = create_handoff(entry, entry_word, rec,
                            addr >= hlog_->safe_read_only(), &gated);
        if (gated) return oc;
      }
      if (oc == OpOutcome::kPendingRetry) continue;  // CAS race: re-read
      return settle(oc);
    }

    if (addr < begin) {
      // ---- Not found anywhere. ----
      if (op.kind == OpKind::kRead || op.kind == OpKind::kDelete) {
        release_here();
        return OpOutcome::kNotFound;
      }
      bool gated = false;
      const OpOutcome oc =
          create_handoff(entry, entry_word, nullptr, false, &gated);
      if (gated) return oc;
      if (oc == OpOutcome::kPendingRetry) continue;
      return settle(oc);
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
        // record.
        bool gated = false;
        const OpOutcome oc =
            create_handoff(entry, entry_word, drec, false, &gated);
        if (gated) return oc;
        if (oc == OpOutcome::kPendingRetry) continue;
        return settle(oc);
      }
      // Key mismatch: follow the on-disk chain one hop deeper.
      const Address prev = drec->info.previous_address();
      if (prev < begin) {
        if (op.kind == OpKind::kRead || op.kind == OpKind::kDelete) {
          release_here();
          return OpOutcome::kNotFound;
        }
        bool gated = false;
        const OpOutcome oc =
            create_handoff(entry, entry_word, nullptr, false, &gated);
        if (gated) return oc;
        if (oc == OpOutcome::kPendingRetry) continue;
        return settle(oc);
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
  bool stalled = false;
  while (true) {
    op.version = session.version_;
    const OpOutcome oc = TryOp(session, op, /*fresh=*/true, read_out);
    switch (oc) {
      case OpOutcome::kDone:
        session.inflight_serial_ = 0;
        return OpStatus::kOk;
      case OpOutcome::kNotFound:
        session.inflight_serial_ = 0;
        return OpStatus::kNotFound;
      case OpOutcome::kAllocStall:
      case OpOutcome::kFlushStall:
        // Park the op on the retry path (CompletePending retries it) when
        // it holds a prepare-phase latch, which pins it to version v while
        // an inline refresh could move the session to v+1; or when, after
        // this session refreshed once, the rollover still waits on other
        // sessions' epochs (or a snapshot's pin): those sessions may be
        // driven by this very thread, whose loop refreshes them. Only a
        // flush already in flight is waited out here.
        if (op.holds_latch || (stalled && oc == OpOutcome::kAllocStall)) {
          session.inflight_serial_ = 0;
          ParkOp(session, op);
          return OpStatus::kPending;
        }
        stalled = true;
        [[fallthrough]];
      case OpOutcome::kShift:
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

bool FasterKv::KeyParkedBefore(const Session& session,
                               std::list<PendingOp>::const_iterator end,
                               uint64_t key) {
  for (auto it = session.pending_.begin(); it != end; ++it) {
    if (it->key == key) return true;
  }
  return false;
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
  p.behind = op.behind;
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
      if (op.behind) {
        if (KeyParkedBefore(session, it, op.key)) {
          ++it;
          continue;
        }
        op.behind = false;
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
        case OpOutcome::kFlushStall:
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
    const std::string path = SnapshotChain(options_.dir).Path(ckpt_.token);
    const bool sync = options_.sync_to_disk;
    const uint64_t trace_id = ckpt_.token;
    io_.Submit([this, from, to, path, sync, trace_id] {
      obs::ScopedSpan span(obs::Tracer::Default(), "faster", "snapshot_flush",
                           trace_id);
      // (v+1) sessions keep updating records in this range in place
      // (ApplyInPlace), so copy it word by word with relaxed atomic loads.
      // Records are whole words, so the range is word-aligned.
      assert(from % 8 == 0 && to % 8 == 0);
      std::vector<char> buf(to - from);
      const uint64_t page_size = hlog_->page_size();
      Address a = from;
      while (a < to) {
        const Address chunk_end =
            std::min<Address>(to, (a & ~(page_size - 1)) + page_size);
        auto* src = reinterpret_cast<uint64_t*>(hlog_->Ptr(a));
        char* dst = buf.data() + (a - from);
        for (uint64_t i = 0; i < (chunk_end - a) / 8; ++i) {
          const uint64_t w =
              std::atomic_ref<uint64_t>(src[i]).load(std::memory_order_relaxed);
          std::memcpy(dst + 8 * i, &w, sizeof(w));
        }
        a = chunk_end;
      }
      const Status s = RetryWithBackoff(
          options_.checkpoint_retry_attempts,
          options_.checkpoint_retry_backoff_ms,
          [&] { return WriteCheckedBlob(path, kSnapMagic, buf, sync); });
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

std::vector<SessionCommitPoint> FasterKv::CollectCommitPoints(
    uint32_t version) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<SessionCommitPoint> points;
  for (const auto& s : sessions_) {
    points.push_back(SessionCommitPoint{
        s->guid_, s->cpr_point_serial_.load(std::memory_order_acquire)});
  }
  for (const auto& [guid, stopped] : stopped_) {
    points.push_back(SessionCommitPoint{
        guid, stopped.version == version ? stopped.point : stopped.serial});
  }
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
    ckpt_.points = CollectCommitPoints(v);
    ckpt_.flushed = ckpt_.variant == CommitVariant::kFoldOver
                        ? ckpt_.lhe
                        : ckpt_.snapshot_start;
    Status s;
    if (snapshot_failed_.load(std::memory_order_acquire)) {
      s = Status::IoError("snapshot write failed");
    } else if (index_failed_.load(std::memory_order_acquire)) {
      s = Status::IoError("index checkpoint write failed");
    } else {
      s = RetryWithBackoff(options_.checkpoint_retry_attempts,
                           options_.checkpoint_retry_backoff_ms,
                           [&] { return PersistCheckpointMetadata(ckpt_); });
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
    ckpt_.token = next_token_.fetch_add(1, std::memory_order_relaxed);
    ckpt_.version = v;
    ckpt_.variant = variant;
    ckpt_.lhs = hlog_->tail();
    ckpt_.begin = hlog_->begin_address();
    ckpt_callback_ = std::move(callback);
    trace_token_.store(ckpt_.token, std::memory_order_relaxed);
    phase_start_ns_.store(NowNanos(), std::memory_order_relaxed);
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
  const uint64_t token = next_token_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = IndexChain(options_.dir).Path(token);
  const uint64_t num_buckets = index_->num_buckets();
  const bool sync = options_.sync_to_disk;
  io_.Submit([this, image, li, token, path, num_buckets, num_overflow, sync] {
    obs::ScopedSpan span(obs::Tracer::Default(), "faster", "index_flush",
                         token);
    std::vector<char> payload;
    payload.reserve(sizeof(Address) + 2 * sizeof(uint64_t) + image->size());
    PutPod(&payload, li);
    PutPod(&payload, num_buckets);
    PutPod(&payload, num_overflow);
    payload.insert(payload.end(), image->begin(), image->end());
    const Status s = RetryWithBackoff(
        options_.checkpoint_retry_attempts,
        options_.checkpoint_retry_backoff_ms,
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
  // Tokens only grow (one counter seeded above the disk); a later commit
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

Status FasterKv::PersistCheckpointMetadata(const CheckpointMetadata& meta) {
  std::vector<char> buf;
  PutPod(&buf, meta.token);
  PutPod(&buf, meta.version);
  PutPod(&buf, static_cast<uint8_t>(meta.variant));
  PutPod(&buf, meta.lhs);
  PutPod(&buf, meta.lhe);
  PutPod(&buf, meta.flushed);
  PutPod(&buf, meta.snapshot_start);
  PutPod(&buf, meta.begin);
  PutPod(&buf, meta.index_token);
  PutPod(&buf, static_cast<uint64_t>(meta.points.size()));
  for (const SessionCommitPoint& p : meta.points) {
    PutPod(&buf, p.guid);
    PutPod(&buf, p.serial);
  }
  const GenerationChain chain = MetaChain(options_.dir);
  Status s = WriteCheckedBlob(chain.Path(meta.token), kMetaMagic, buf,
                              options_.sync_to_disk);
  if (!s.ok()) return s;
  return chain.Publish(meta.token, options_.sync_to_disk);
}

Status FasterKv::LoadCheckpointMetadata(uint64_t token,
                                        CheckpointMetadata* meta) {
  std::vector<char> buf;
  Status s = ReadCheckedBlob(MetaChain(options_.dir).Path(token), kMetaMagic,
                             &buf);
  if (!s.ok()) return s;
  PodReader r(buf);
  uint8_t variant = 0;
  uint64_t num_points = 0;
  if (!r.Pod(&meta->token) || !r.Pod(&meta->version) || !r.Pod(&variant) ||
      !r.Pod(&meta->lhs) || !r.Pod(&meta->lhe) || !r.Pod(&meta->flushed) ||
      !r.Pod(&meta->snapshot_start) || !r.Pod(&meta->begin) ||
      !r.Pod(&meta->index_token) || !r.Pod(&num_points)) {
    return Status::Corruption("truncated checkpoint metadata");
  }
  meta->variant = static_cast<CommitVariant>(variant);
  meta->points.clear();
  for (uint64_t i = 0; i < num_points; ++i) {
    SessionCommitPoint p;
    if (!r.Pod(&p.guid) || !r.Pod(&p.serial)) {
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
  const GenerationChain metas = MetaChain(options_.dir);
  const std::vector<uint64_t> tokens = metas.List();
  if (tokens.size() <= retain) return;

  std::set<uint64_t> keep_ckpt(tokens.begin(), tokens.begin() + retain);
  std::set<uint64_t> keep_index;
  {
    // Externally pinned generations (retained cross-shard manifests) are
    // kept no matter how far the retain window has moved past them, and
    // the image the next log-only commit would reuse stays too.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    keep_ckpt.insert(pinned_tokens_.begin(), pinned_tokens_.end());
    if (last_index_token_ != 0) keep_index.insert(last_index_token_);
  }
  // Index images referenced by a retained generation must survive even if
  // they were taken for an older commit (log-only commits reuse them).
  for (uint64_t t : keep_ckpt) {
    CheckpointMetadata meta;
    if (LoadCheckpointMetadata(t, &meta).ok()) {
      keep_index.insert(meta.index_token);
    }
  }
  metas.Prune(keep_ckpt);
  SnapshotChain(options_.dir).Prune(keep_ckpt);
  IndexChain(options_.dir).Prune(keep_index);
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
      if (oc == OpOutcome::kAllocStall || oc == OpOutcome::kFlushStall) {
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

// -- Recovery (Alg. 3) -------------------------------------------------------

Status FasterKv::Recover() {
  // The published generation first, then every other one newest-first: a
  // generation whose artifacts are torn, bit-flipped or missing is skipped,
  // so recovery lands on the newest *valid* CPR-consistent prefix instead of
  // failing or loading garbage. An index-size mismatch keeps its
  // InvalidArgument code ("wrong options", not "corrupt store").
  return MetaChain(options_.dir).Walk(
      [this](uint64_t token) { return RecoverFromToken(token); });
}

Status FasterKv::Recover(uint64_t token) { return RecoverFromToken(token); }

Status FasterKv::ValidateCheckpoint(uint64_t token) {
  CheckpointMetadata meta;
  Status s = LoadCheckpointMetadata(token, &meta);
  if (!s.ok()) return s;
  s = ProbeCheckedBlob(IndexChain(options_.dir).Path(meta.index_token),
                       kIndexMagic);
  if (!s.ok()) return s;
  if (meta.variant == CommitVariant::kSnapshot) {
    s = ProbeCheckedBlob(SnapshotChain(options_.dir).Path(meta.token),
                         kSnapMagic);
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
  s = ReadCheckedBlob(IndexChain(options_.dir).Path(meta.index_token),
                      kIndexMagic, &payload);
  if (!s.ok()) return s;
  PodReader r(payload);
  Address li = 0;
  uint64_t num_buckets = 0, num_overflow = 0;
  if (!r.Pod(&li) || !r.Pod(&num_buckets) || !r.Pod(&num_overflow)) {
    return Status::Corruption("index image header truncated");
  }
  if (num_buckets != index_->num_buckets()) {
    return Status::InvalidArgument(
        "index_buckets option does not match the checkpoint");
  }
  // Clear first: a previous failed candidate attempt may have left overflow
  // entries behind, and LoadFrom only overwrites what the image covers.
  index_->Clear();
  s = index_->LoadFrom(payload.data() + r.pos(), r.remaining(), num_overflow);
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
    s = ReadCheckedBlob(SnapshotChain(options_.dir).Path(meta.token),
                        kSnapMagic, &buf);
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
    std::lock_guard<std::mutex> lock(sessions_mu_);
    stopped_.clear();
  }
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
