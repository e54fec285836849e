#include "shard/sharded_kv.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "io/blob.h"
#include "io/file.h"
#include "io/generations.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/hash.h"
#include "util/pod.h"

namespace cpr::kv {

namespace {

constexpr uint64_t kManifestMagic = 0x4350525348415244ULL;  // "CPRSHARD"

// Cross-shard manifests: manifest.<round>.meta in the root directory, with
// LATEST holding the published manifest's file name.
GenerationChain ManifestChain(const std::string& dir) {
  return GenerationChain(dir, "manifest.", ".meta", LatestForm::kName);
}

}  // namespace

// One client session spanning every shard. `serial_` is the global serial
// counter; each shard holds a sub-session whose engine serial is advanced
// lazily to (global - 1) right before an operation executes there, so the
// executing operation's engine serial equals its global serial exactly.
// `skip_below_[i]` is shard i's recovered commit point: after recovery, any
// operation whose global serial lands at or below it while routing to shard
// i is a client replay the shard already holds (see the skip rule under
// Operations) and is answered without executing.
class ShardedKv::ShardSession final : public Session {
 public:
  ShardSession(uint64_t guid, uint32_t num_shards)
      : guid_(guid), subs_(num_shards, nullptr), skip_below_(num_shards, 0) {}

  uint64_t guid() const override { return guid_; }
  uint64_t serial() const override { return serial_; }
  uint64_t last_commit_point() const override { return last_commit_point_; }
  size_t pending_count() const override {
    size_t n = 0;
    for (const faster::Session* s : subs_) {
      if (s != nullptr) n += s->pending_count();
    }
    return n;
  }
  // Sub-session serials coincide with global serials, so asynchronous
  // completions forward verbatim. Sub-sessions on shards still restoring
  // (subs_[i] == nullptr) inherit the callback when they are created.
  void set_async_callback(
      std::function<void(const faster::AsyncResult&)> cb) override {
    cb_ = cb;
    for (faster::Session* s : subs_) {
      if (s != nullptr) s->set_async_callback(cb_);
    }
  }

 private:
  friend class ShardedKv;

  uint64_t guid_;
  uint64_t serial_ = 0;             // global serial space
  uint64_t last_commit_point_ = 0;  // recovered global commit point
  std::vector<faster::Session*> subs_;  // null while the shard restores
  std::vector<uint64_t> skip_below_;
  std::function<void(const faster::AsyncResult&)> cb_;
};

ShardedKv::ShardedKv(Options options)
    : options_(std::move(options)),
      num_shards_(std::max<uint32_t>(1, options_.num_shards)),
      root_dir_(options_.base.dir),
      op_counts_(new std::atomic<uint64_t>[num_shards_]) {
  CreateDirectories(root_dir_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    op_counts_[i].store(0, std::memory_order_relaxed);
    faster::FasterKv::Options o = options_.base;
    o.dir = root_dir_ + "/shard-" + std::to_string(i);
    if (options_.retain_manifests > 0 && o.retain_checkpoints > 0) {
      // Backstop only: every retained manifest's tokens are pinned against
      // shard-local GC explicitly (PinRetainedManifestTokens), and the
      // generation a round has just written is its shard's newest (engine
      // tokens only grow), so any count keeps it until its manifest pins it.
      // A wider window merely reduces churn when failed rounds advance
      // shard generations without advancing manifests.
      o.retain_checkpoints =
          std::max(o.retain_checkpoints, 2 * options_.retain_manifests);
    }
    shards_.push_back(std::make_unique<faster::FasterKv>(std::move(o)));
  }
  shard_state_.reset(new std::atomic<uint8_t>[num_shards_]);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    shard_state_[i].store(static_cast<uint8_t>(ShardRecoveryState::kReady),
                          std::memory_order_relaxed);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  rounds_total_ = registry.GetCounter("cpr_shard_rounds_total");
  rounds_failed_total_ = registry.GetCounter("cpr_shard_rounds_failed_total");
  shard_recovery_ns_ = registry.GetHistogram("cpr_shard_recovery_ns");
  obs_collector_id_ = registry.AddCollector(
      [this](const obs::MetricsRegistry::EmitFn& emit) {
        emit("cpr_shard_count", static_cast<double>(num_shards_));
        emit("cpr_shard_last_completed_round",
             static_cast<double>(
                 last_completed_round_.load(std::memory_order_acquire)));
        emit("cpr_shard_round_active",
             round_active_.load(std::memory_order_acquire) ? 1.0 : 0.0);
        emit("cpr_shard_recovering",
             recovering_.load(std::memory_order_acquire) ? 1.0 : 0.0);
        for (uint32_t i = 0; i < num_shards_; ++i) {
          emit("cpr_shard_ops_total{shard=\"" + std::to_string(i) + "\"}",
               static_cast<double>(
                   op_counts_[i].load(std::memory_order_relaxed)));
          emit("cpr_shard_recovery_state{shard=\"" + std::to_string(i) + "\"}",
               static_cast<double>(
                   shard_state_[i].load(std::memory_order_relaxed)));
        }
      });

  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

ShardedKv::~ShardedKv() {
  obs::MetricsRegistry::Default().RemoveCollector(obs_collector_id_);
  {
    // Abort any in-flight background recovery: workers stop picking up new
    // shards (a shard restore already running completes first).
    std::lock_guard<std::mutex> lock(rec_mu_);
    rec_abort_ = true;
    rec_queue_.clear();
  }
  rec_cv_.notify_all();
  if (recovery_thread_.joinable()) recovery_thread_.join();
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    stop_ = true;
  }
  coord_cv_.notify_all();
  waiter_cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
}

uint32_t ShardedKv::ShardOf(uint64_t key) const {
  // A single store routes everything home without hashing or dividing.
  if (num_shards_ == 1) return 0;
  // High hash bits: the in-shard hash index derives its bucket from the low
  // bits of the same Hash64, so routing on them would leave each shard using
  // only 1/num_shards of its buckets.
  return static_cast<uint32_t>((Hash64(key) >> 32) % num_shards_);
}

uint32_t ShardedKv::value_size() const { return shards_[0]->value_size(); }

std::vector<uint64_t> ShardedKv::ManifestShardTokens() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return manifest_tokens_;
}

// -- Sessions -------------------------------------------------------------

Session* ShardedKv::StartSession(uint64_t guid) {
  const uint64_t g =
      guid != 0 ? guid
                : (NowNanos() ^ next_guid_.fetch_add(1, std::memory_order_relaxed));
  auto session = std::make_unique<ShardSession>(g, num_shards_);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<bool> ready(num_shards_, true);
  if (recovering_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> rlock(rec_mu_);
    // The session is about to copy the installed commit points: from here
    // on the background recovery may not walk back to an older manifest
    // (it would silently change the points underneath this session).
    served_since_install_ = true;
    for (uint32_t i = 0; i < num_shards_; ++i) {
      ready[i] = shard_state_[i].load(std::memory_order_acquire) ==
                 static_cast<uint8_t>(ShardRecoveryState::kReady);
    }
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    // Engine sub-sessions on shards still restoring are created lazily on
    // first use (EnsureShardServes); touching a mid-recovery engine races
    // its index/log rebuild.
    if (!ready[i]) continue;
    session->subs_[i] = shards_[i]->StartSession(g);
    if (session->subs_[i] == nullptr) {
      for (uint32_t j = 0; j < i; ++j) {
        if (session->subs_[j] != nullptr) {
          shards_[j]->StopSession(session->subs_[j]);
        }
      }
      return nullptr;
    }
  }
  known_guids_.insert(g);
  if (auto it = stopped_.find(g); it != stopped_.end()) {
    // A session stopped in this process resumes at its final serial, so
    // the client replays nothing. It keeps its skip rule: a client that
    // left mid-replay still sends replays the shards already hold.
    session->serial_ = it->second.serial;
    session->last_commit_point_ = it->second.serial;
    session->skip_below_ = std::move(it->second.skip_below);
    stopped_.erase(it);
  } else if (auto pt = points_.find(g); pt != points_.end()) {
    // Resume at the global commit point: serial numbering continues above
    // it, and each shard deduplicates replays at or below its own point.
    session->serial_ = pt->second.global;
    session->last_commit_point_ = pt->second.global;
    session->skip_below_ = pt->second.per_shard;
  }
  Session* raw = session.get();
  sessions_.push_back(std::move(session));
  return raw;
}

void ShardedKv::StopSession(Session* session) {
  auto* s = static_cast<ShardSession*>(session);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (s->subs_[i] == nullptr) continue;
    // Each shard keeps the global final serial as the guid's point, so the
    // next manifest's global point for it is exactly that serial.
    shards_[i]->AdvanceSerial(*s->subs_[i], s->serial_);
    shards_[i]->StopSession(s->subs_[i]);
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  stopped_[s->guid_] = Stopped{s->serial_, std::move(s->skip_below_)};
  sessions_.erase(std::find_if(sessions_.begin(), sessions_.end(),
                               [&](const auto& p) { return p.get() == s; }));
}

Status ShardedKv::DurableCommitPoint(uint64_t guid, uint64_t* serial) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (recovering_.load(std::memory_order_acquire)) {
    // The answer is a durability promise derived from the installed
    // manifest; once given, recovery may not walk back to an older one.
    std::lock_guard<std::mutex> rlock(rec_mu_);
    served_since_install_ = true;
  }
  auto it = points_.find(guid);
  if (it == points_.end()) {
    return Status::NotFound("no published manifest covers guid");
  }
  *serial = it->second.global;
  return Status::Ok();
}

// -- Operations -----------------------------------------------------------
//
// The skip rule: an operation with global serial g routed to shard i where
// g <= skip_below_[i] is necessarily a replay of a pre-crash operation the
// shard already holds — fresh post-recovery operations draw serials above
// the session's crash-time serial, which is >= every shard's commit point.
// Updates acknowledge kOk without re-executing (exactly-once). Reads are
// also skipped (kNotFound) rather than re-executed: running them would
// advance the shard's engine serial past serials the manifest already
// assigned to *skipped updates*, breaking the sub-serial == global-serial
// correspondence for the operations that follow.

bool ShardedKv::TryEnsureSub(ShardSession& s, uint32_t i) {
  if (s.subs_[i] != nullptr) return true;
  if (!ShardReady(i)) return false;
  // Sessions imply served_since_install_, so no walk-back can re-run this
  // shard's engine recovery once it reported ready: creating the engine
  // session here is race-free.
  faster::Session* sub = shards_[i]->StartSession(s.guid_);
  if (sub == nullptr) return false;
  if (s.cb_) sub->set_async_callback(s.cb_);
  s.subs_[i] = sub;
  return true;
}

void ShardedKv::EnsureShardServes(ShardSession& s, uint32_t i) {
  if (s.subs_[i] != nullptr) return;
  if (!ShardReady(i)) {
    PrioritizeShard(i);
    std::unique_lock<std::mutex> lock(rec_mu_);
    rec_cv_.wait(lock, [&] {
      return ShardReady(i) || !recovering_.load(std::memory_order_acquire);
    });
  }
  // Ready, or recovery concluded — possibly failed: a terminally-failed
  // shard still gets a session so direct backend callers keep the
  // pre-instant-restart semantics of running against whatever state the
  // failed walk left (the serving layer checks ShardReady and never routes
  // here in that case).
  while (s.subs_[i] == nullptr) {
    faster::Session* sub = shards_[i]->StartSession(s.guid_);
    if (sub != nullptr) {
      if (s.cb_) sub->set_async_callback(s.cb_);
      s.subs_[i] = sub;
      return;
    }
    // Epoch slot transiently unavailable; occupancy is symmetric across
    // shards, so this resolves as soon as a racing StopSession finishes.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

template <typename EngineOp>
faster::OpStatus ShardedKv::Dispatch(Session& session, uint64_t key,
                                     faster::OpStatus replayed,
                                     EngineOp&& engine_op) {
  auto& s = static_cast<ShardSession&>(session);
  const uint32_t i = ShardOf(key);
  const uint64_t g = ++s.serial_;
  if (g <= s.skip_below_[i]) return replayed;
  if (s.subs_[i] == nullptr) EnsureShardServes(s, i);
  op_counts_[i].fetch_add(1, std::memory_order_relaxed);
  shards_[i]->AdvanceSerial(*s.subs_[i], g - 1);
  return engine_op(*shards_[i], *s.subs_[i]);
}

faster::OpStatus ShardedKv::Read(Session& session, uint64_t key,
                                 void* value_out) {
  return Dispatch(session, key, faster::OpStatus::kNotFound,
                  [&](faster::FasterKv& kv, faster::Session& sub) {
                    return kv.Read(sub, key, value_out);
                  });
}

faster::OpStatus ShardedKv::Upsert(Session& session, uint64_t key,
                                   const void* value) {
  return Dispatch(session, key, faster::OpStatus::kOk,
                  [&](faster::FasterKv& kv, faster::Session& sub) {
                    return kv.Upsert(sub, key, value);
                  });
}

faster::OpStatus ShardedKv::Rmw(Session& session, uint64_t key,
                                int64_t delta) {
  return Dispatch(session, key, faster::OpStatus::kOk,
                  [&](faster::FasterKv& kv, faster::Session& sub) {
                    return kv.Rmw(sub, key, delta);
                  });
}

faster::OpStatus ShardedKv::Delete(Session& session, uint64_t key) {
  return Dispatch(session, key, faster::OpStatus::kOk,
                  [&](faster::FasterKv& kv, faster::Session& sub) {
                    return kv.Delete(sub, key);
                  });
}

uint64_t ShardedKv::SkipSerial(Session& session) {
  // Burn one global serial with no effect on any shard. The serial stream
  // stays aligned with the client's predictions; on replay the client sends
  // a neutralized read for this serial, which either executes harmlessly or
  // is deduplicated by the skip rule like any other replayed op.
  auto& s = static_cast<ShardSession&>(session);
  return ++s.serial_;
}

void ShardedKv::Refresh(Session& session) {
  auto& s = static_cast<ShardSession&>(session);
  // Sync every sub-session's serial to the global serial first, so a version
  // crossing on a shard this session rarely touches still captures a CPR
  // point aligned with the global serial space. Shards still restoring are
  // skipped — they hold no state of this session yet.
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (!TryEnsureSub(s, i)) continue;
    shards_[i]->AdvanceSerial(*s.subs_[i], s.serial_);
    shards_[i]->Refresh(*s.subs_[i]);
  }
}

size_t ShardedKv::CompletePending(Session& session, bool wait_for_all) {
  auto& s = static_cast<ShardSession&>(session);
  size_t completed = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (s.subs_[i] == nullptr) continue;
    completed += shards_[i]->CompletePending(*s.subs_[i], wait_for_all);
  }
  return completed;
}

// -- Coordinated checkpoints ---------------------------------------------

bool ShardedKv::Checkpoint(faster::CommitVariant variant, bool include_index,
                           uint64_t* token_out) {
  // No round can start while shards are still restoring: a checkpoint
  // broadcast would race the engine rebuilds, and the manifest round
  // numbering is not settled until the walk-back can no longer happen.
  if (recovering_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(coord_mu_);
  if (round_active_.load(std::memory_order_acquire)) return false;
  round_active_.store(true, std::memory_order_release);
  requested_round_ = Round{next_round_++, variant, include_index};
  round_requested_ = true;
  if (token_out != nullptr) *token_out = requested_round_.round;
  coord_cv_.notify_one();
  return true;
}

Status ShardedKv::WaitForCheckpoint(uint64_t round) {
  std::unique_lock<std::mutex> lock(coord_mu_);
  waiter_cv_.wait(lock, [&] {
    return stop_ || last_finished_round_.load(std::memory_order_acquire) >= round;
  });
  if (last_finished_round_.load(std::memory_order_acquire) < round) {
    return Status::IoError("coordinated round did not complete");  // stop_
  }
  // Rounds finish in order, so the round is done; it succeeded unless it is
  // a remembered failure. At or below failed_floor_ the outcome has been
  // forgotten — report failure rather than promise durability that may not
  // exist.
  if (failed_rounds_.count(round) != 0) {
    return Status::IoError("coordinated round failed");
  }
  if (failed_floor_ != 0 && round <= failed_floor_) {
    return Status::IoError("coordinated round outcome no longer tracked");
  }
  return Status::Ok();
}

void ShardedKv::CoordinatorLoop() {
  std::unique_lock<std::mutex> lock(coord_mu_);
  for (;;) {
    coord_cv_.wait(lock, [&] { return stop_ || round_requested_; });
    if (stop_) return;
    const Round round = requested_round_;
    round_requested_ = false;
    lock.unlock();
    const bool ok = RunRound(round);
    lock.lock();
    rounds_total_->Add(1);
    if (ok) {
      last_completed_round_.store(round.round, std::memory_order_release);
    } else {
      rounds_failed_total_->Add(1);
      failures_.fetch_add(1, std::memory_order_acq_rel);
      failed_rounds_.insert(round.round);
      constexpr size_t kMaxTrackedFailedRounds = 1024;
      while (failed_rounds_.size() > kMaxTrackedFailedRounds) {
        failed_floor_ = std::max(failed_floor_, *failed_rounds_.begin());
        failed_rounds_.erase(failed_rounds_.begin());
      }
    }
    last_finished_round_.store(round.round, std::memory_order_release);
    round_active_.store(false, std::memory_order_release);
    waiter_cv_.notify_all();
  }
}

bool ShardedKv::RunRound(const Round& round) {
  std::vector<uint64_t> tokens(num_shards_, 0);
  std::vector<bool> started(num_shards_, false);
  bool ok = true;
  obs::Tracer& tracer = obs::Tracer::Default();
  uint64_t t0 = NowNanos();
  for (uint32_t i = 0; i < num_shards_; ++i) {
    started[i] =
        shards_[i]->Checkpoint(round.variant, round.include_index,
                               /*callback=*/nullptr, &tokens[i]);
    if (!started[i]) ok = false;
  }
  uint64_t t1 = NowNanos();
  tracer.Record("shard", "broadcast", t0, t1, round.round);
  // Wait out every shard that did start, even after the round has already
  // failed: the next round must not find a shard mid-checkpoint. Engine
  // checkpoints conclude (success or failure) without our help, and
  // WaitForCheckpoint ticks the state machine itself, so this terminates
  // even under injected storage faults.
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (!started[i]) continue;
    if (!shards_[i]->WaitForCheckpoint(tokens[i]).ok()) ok = false;
  }
  tracer.Record("shard", "collect", t1, NowNanos(), round.round);
  if (!ok) return false;
  obs::ScopedSpan publish(tracer, "shard", "publish_manifest", round.round);
  return BuildAndPublishManifest(round.round, tokens);
}

bool ShardedKv::BuildAndPublishManifest(uint64_t round,
                                        const std::vector<uint64_t>& tokens) {
  // Snapshot the guid set and current points (fallback for sessions a shard
  // checkpoint missed, e.g. started after the version crossing).
  std::set<uint64_t> guids;
  std::map<uint64_t, SessionPoints> previous;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    guids = known_guids_;
    previous = points_;
  }

  std::map<uint64_t, SessionPoints> next;
  for (uint64_t guid : guids) {
    SessionPoints p;
    p.per_shard.assign(num_shards_, 0);
    auto prev = previous.find(guid);
    for (uint32_t i = 0; i < num_shards_; ++i) {
      uint64_t point = 0;
      if (!shards_[i]->DurableCommitPoint(guid, &point).ok()) {
        point = prev != previous.end() ? prev->second.per_shard[i] : 0;
      }
      p.per_shard[i] = point;
    }
    p.global = *std::min_element(p.per_shard.begin(), p.per_shard.end());
    next.emplace(guid, std::move(p));
  }

  std::vector<char> payload;
  PutPod(&payload, round);
  PutPod(&payload, num_shards_);
  PutPod(&payload, uint32_t{0});  // reserved
  for (uint64_t token : tokens) PutPod(&payload, token);
  PutPod(&payload, static_cast<uint64_t>(next.size()));
  for (const auto& [guid, p] : next) {
    PutPod(&payload, guid);
    PutPod(&payload, p.global);
    for (uint64_t point : p.per_shard) PutPod(&payload, point);
  }

  const GenerationChain chain = ManifestChain(root_dir_);
  if (!WriteCheckedBlob(chain.Path(round), kManifestMagic, payload,
                        options_.base.sync_to_disk)
           .ok()) {
    return false;
  }
  if (!chain.Publish(round, options_.base.sync_to_disk).ok()) return false;

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    points_ = std::move(next);
    manifest_tokens_ = tokens;
  }
  GarbageCollectManifests();
  PinRetainedManifestTokens();
  return true;
}

void ShardedKv::GarbageCollectManifests() {
  if (options_.retain_manifests == 0) return;
  const GenerationChain chain = ManifestChain(root_dir_);
  const std::vector<uint64_t> rounds = chain.List();
  if (rounds.size() <= options_.retain_manifests) return;
  chain.Prune(std::set<uint64_t>(
      rounds.begin(), rounds.begin() + options_.retain_manifests));
}

void ShardedKv::PinRetainedManifestTokens() {
  // Pin, on every shard, the engine token each retained on-disk manifest
  // names for it. Shard checkpoint GC then keeps those generations no
  // matter how many failed rounds advanced the shard past them, so the
  // recovery walk can always restore any retained manifest. No shard
  // checkpoint is in flight when this runs (the coordinator publishes only
  // after every shard's round concluded; Recover runs before sessions
  // start), so a pin can never arrive after the GC it needed to influence.
  std::vector<std::set<uint64_t>> pins(num_shards_);
  for (uint64_t round : ManifestChain(root_dir_).List()) {
    RecoveryCandidate c;
    // An unloadable manifest is unrecoverable anyway (Recover skips it too).
    if (!LoadManifest(round, &c)) continue;
    for (uint32_t i = 0; i < num_shards_; ++i) pins[i].insert(c.tokens[i]);
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    shards_[i]->PinCheckpointTokens(std::move(pins[i]));
  }
}

// -- Recovery -------------------------------------------------------------

bool ShardedKv::LoadManifest(uint64_t round, RecoveryCandidate* out) const {
  std::vector<char> payload;
  if (!ReadCheckedBlob(ManifestChain(root_dir_).Path(round), kManifestMagic,
                       &payload)
           .ok()) {
    return false;
  }
  PodReader r(payload);
  uint64_t stored_round = 0;
  uint32_t stored_shards = 0;
  uint32_t reserved = 0;
  if (!r.Pod(&stored_round) || !r.Pod(&stored_shards) || !r.Pod(&reserved) ||
      stored_round != round || stored_shards != num_shards_) {
    return false;
  }
  out->round = round;
  out->tokens.assign(num_shards_, 0);
  for (uint64_t& token : out->tokens) {
    if (!r.Pod(&token)) return false;
  }
  uint64_t num_sessions = 0;
  if (!r.Pod(&num_sessions)) return false;
  for (uint64_t s = 0; s < num_sessions; ++s) {
    uint64_t guid = 0;
    SessionPoints p;
    p.per_shard.assign(num_shards_, 0);
    if (!r.Pod(&guid) || !r.Pod(&p.global)) return false;
    for (uint64_t& point : p.per_shard) {
      if (!r.Pod(&point)) return false;
    }
    out->points.emplace(guid, std::move(p));
  }
  return true;
}

std::vector<ShardedKv::RecoveryCandidate>
ShardedKv::CollectRecoveryCandidates() {
  std::vector<RecoveryCandidate> candidates;
  for (uint64_t round : ManifestChain(root_dir_).RecoveryOrder()) {
    RecoveryCandidate c;
    if (LoadManifest(round, &c)) candidates.push_back(std::move(c));
  }
  return candidates;
}

bool ShardedKv::PreflightCandidate(const RecoveryCandidate& candidate) {
  // Header-only probes (O(1) per shard): a failing probe guarantees the
  // full restore would fail, so the walk skips the candidate without paying
  // for an engine recovery attempt. Payload corruption passes the probe and
  // is caught by the restore itself.
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (!shards_[i]->ValidateCheckpoint(candidate.tokens[i]).ok()) {
      return false;
    }
  }
  return true;
}

void ShardedKv::InstallCandidate(const RecoveryCandidate& candidate,
                                 bool locked) {
  {
    std::unique_lock<std::mutex> lock(sessions_mu_, std::defer_lock);
    if (!locked) lock.lock();
    known_guids_.clear();
    stopped_.clear();
    for (const auto& [guid, p] : candidate.points) known_guids_.insert(guid);
    points_ = candidate.points;
    manifest_tokens_ = candidate.tokens;
  }
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    next_round_ = candidate.round + 1;
  }
  last_completed_round_.store(candidate.round, std::memory_order_release);
  last_finished_round_.store(candidate.round, std::memory_order_release);
}

Status ShardedKv::StartRecovery() {
  std::vector<RecoveryCandidate> candidates = CollectRecoveryCandidates();
  // Drop candidates failing preflight until one is viable; the rest stay as
  // the walk-back stack (they are re-preflighted if the walk reaches them).
  while (!candidates.empty() && !PreflightCandidate(candidates.front())) {
    candidates.erase(candidates.begin());
  }
  if (candidates.empty()) {
    // A FasterKv checkpoint in the root itself is the layout of a server
    // that served one store without ShardedKv. Starting fresh over it
    // would silently drop every update it acknowledged as durable.
    if (faster::FasterKv::HoldsCheckpoint(root_dir_)) {
      return Status::FailedPrecondition(
          root_dir_ +
          " holds a single-store checkpoint (the layout before one-shard "
          "ShardedKv); it cannot be recovered as a sharded store");
    }
    return Status::NotFound("no recoverable cross-shard manifest");
  }

  // Phase A: the commit point is pinned — sessions may start immediately.
  InstallCandidate(candidates.front(), /*locked=*/false);
  {
    std::lock_guard<std::mutex> lock(rec_mu_);
    served_since_install_ = false;
    rec_abort_ = false;
    rec_status_ = Status::Ok();
    rec_candidates_ = std::move(candidates);
    rec_queue_.clear();
    for (uint32_t i = 0; i < num_shards_; ++i) {
      shard_state_[i].store(
          static_cast<uint8_t>(ShardRecoveryState::kPending),
          std::memory_order_release);
      rec_queue_.push_back(i);
    }
    recovering_.store(true, std::memory_order_release);
  }

  // Phase B: shard restores proceed in the background.
  if (recovery_thread_.joinable()) recovery_thread_.join();
  recovery_thread_ = std::thread([this] { RecoveryMain(); });
  return Status::Ok();
}

bool ShardedKv::RunRecoveryAttempt(const std::vector<uint64_t>& tokens,
                                   uint64_t round) {
  const uint32_t workers = std::min(
      num_shards_, std::max<uint32_t>(1, options_.recovery_workers));
  std::atomic<bool> failed{false};
  auto work = [&] {
    for (;;) {
      uint32_t i = 0;
      {
        std::unique_lock<std::mutex> lock(rec_mu_);
        if (rec_queue_.empty() || rec_abort_ ||
            failed.load(std::memory_order_acquire)) {
          return;
        }
        i = rec_queue_.front();
        rec_queue_.pop_front();
        shard_state_[i].store(
            static_cast<uint8_t>(ShardRecoveryState::kRecovering),
            std::memory_order_release);
      }
      const uint64_t t0 = NowNanos();
      Status s = shards_[i]->Recover(tokens[i]);
      if (!s.ok()) {
        // One retry: a transient injected read fault (EIO campaigns) should
        // not walk the whole store back a generation.
        s = shards_[i]->Recover(tokens[i]);
      }
      const uint64_t t1 = NowNanos();
      obs::Tracer::Default().Record("recover",
                                    ("shard-" + std::to_string(i)).c_str(), t0,
                                    t1, round);
      std::lock_guard<std::mutex> lock(rec_mu_);
      if (s.ok()) {
        shard_recovery_ns_->Record(t1 - t0);
        shard_state_[i].store(
            static_cast<uint8_t>(ShardRecoveryState::kReady),
            std::memory_order_release);
      } else {
        failed.store(true, std::memory_order_release);
        rec_queue_.clear();
        shard_state_[i].store(
            static_cast<uint8_t>(ShardRecoveryState::kPending),
            std::memory_order_release);
      }
      rec_cv_.notify_all();
    }
  };
  std::vector<std::thread> pool;
  for (uint32_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return !failed.load(std::memory_order_acquire);
}

void ShardedKv::RecoveryMain() {
  for (;;) {
    std::vector<uint64_t> tokens;
    uint64_t round = 0;
    {
      std::lock_guard<std::mutex> lock(rec_mu_);
      tokens = rec_candidates_.front().tokens;
      round = rec_candidates_.front().round;
    }
    if (RunRecoveryAttempt(tokens, round)) {
      {
        std::lock_guard<std::mutex> lock(rec_mu_);
        if (rec_abort_) {
          // Destructor aborted a partially-drained queue: report failure,
          // not success (some shards never restored).
          rec_status_ = Status::IoError("recovery aborted at shutdown");
          recovering_.store(false, std::memory_order_release);
          rec_cv_.notify_all();
          return;
        }
        rec_status_ = Status::Ok();
        recovering_.store(false, std::memory_order_release);
        rec_cv_.notify_all();
      }
      PinRetainedManifestTokens();
      return;
    }

    // Attempt failed. Walk back iff the installed commit points were never
    // observed; otherwise the failure is terminal. sessions_mu_ before
    // rec_mu_ (the StartSession order) — holding both freezes session
    // starts while the points are swapped.
    std::lock_guard<std::mutex> sess_lock(sessions_mu_);
    std::lock_guard<std::mutex> lock(rec_mu_);
    if (rec_abort_) {
      rec_status_ = Status::IoError("recovery aborted at shutdown");
      recovering_.store(false, std::memory_order_release);
      rec_cv_.notify_all();
      return;
    }
    if (served_since_install_) {
      rec_status_ =
          Status::IoError("shard restore failed after serving began");
      for (uint32_t i = 0; i < num_shards_; ++i) {
        if (shard_state_[i].load(std::memory_order_acquire) !=
            static_cast<uint8_t>(ShardRecoveryState::kReady)) {
          shard_state_[i].store(
              static_cast<uint8_t>(ShardRecoveryState::kFailed),
              std::memory_order_release);
        }
      }
      recovering_.store(false, std::memory_order_release);
      rec_cv_.notify_all();
      return;
    }
    rec_candidates_.erase(rec_candidates_.begin());
    while (!rec_candidates_.empty() &&
           !PreflightCandidate(rec_candidates_.front())) {
      rec_candidates_.erase(rec_candidates_.begin());
    }
    if (rec_candidates_.empty()) {
      // Exhausted. Match the historical sync-Recover contract: NotFound,
      // and the store remains usable in whatever state the last attempt
      // left (tests recover fresh stores through this path).
      rec_status_ = Status::NotFound("no recoverable cross-shard manifest");
      for (uint32_t i = 0; i < num_shards_; ++i) {
        shard_state_[i].store(
            static_cast<uint8_t>(ShardRecoveryState::kReady),
            std::memory_order_release);
      }
      recovering_.store(false, std::memory_order_release);
      rec_cv_.notify_all();
      return;
    }
    // Re-pin the older manifest's commit points and restart every shard:
    // previously-ready shards must roll back to the older tokens too.
    InstallCandidate(rec_candidates_.front(), /*locked=*/true);
    rec_queue_.clear();
    for (uint32_t i = 0; i < num_shards_; ++i) {
      shard_state_[i].store(
          static_cast<uint8_t>(ShardRecoveryState::kPending),
          std::memory_order_release);
      rec_queue_.push_back(i);
    }
  }
}

Status ShardedKv::WaitForRecovery() {
  std::unique_lock<std::mutex> lock(rec_mu_);
  rec_cv_.wait(lock, [&] {
    return !recovering_.load(std::memory_order_acquire);
  });
  return rec_status_;
}

void ShardedKv::PrioritizeShard(uint32_t shard) {
  std::lock_guard<std::mutex> lock(rec_mu_);
  auto it = std::find(rec_queue_.begin(), rec_queue_.end(), shard);
  if (it != rec_queue_.end() && it != rec_queue_.begin()) {
    rec_queue_.erase(it);
    rec_queue_.push_front(shard);
  }
}

Status ShardedKv::Recover() {
  Status s = StartRecovery();
  if (!s.ok()) return s;
  return WaitForRecovery();
}

}  // namespace cpr::kv
