#include "epoch/epoch.h"

#include <cassert>
#include <thread>
#include <utility>

namespace cpr {

std::atomic<uint64_t> EpochFramework::next_instance_id_{1};

namespace {

// Per-thread registry of (framework instance id -> slot). A thread rarely
// protects more than one framework at a time, so a tiny linear-searched
// vector beats any map.
struct SlotBinding {
  uint64_t instance_id;
  int32_t slot;
};

thread_local std::vector<SlotBinding> tls_bindings;

int32_t FindBinding(uint64_t instance_id) {
  for (const auto& b : tls_bindings) {
    if (b.instance_id == instance_id) return b.slot;
  }
  return -1;
}

void AddBinding(uint64_t instance_id, int32_t slot) {
  tls_bindings.push_back(SlotBinding{instance_id, slot});
}

void RemoveBinding(uint64_t instance_id) {
  for (size_t i = 0; i < tls_bindings.size(); ++i) {
    if (tls_bindings[i].instance_id == instance_id) {
      tls_bindings[i] = tls_bindings.back();
      tls_bindings.pop_back();
      return;
    }
  }
}

}  // namespace

EpochFramework::EpochFramework(uint32_t max_threads)
    : max_threads_(max_threads),
      table_(new Entry[max_threads]),
      drain_list_(new DrainEntry[kDrainListSize]),
      // Epoch 0 is reserved as the "unprotected" sentinel; start at 1.
      current_epoch_(1),
      safe_epoch_(0),
      instance_id_(next_instance_id_.fetch_add(1)) {}

EpochFramework::~EpochFramework() {
  // Run any remaining actions: with no protected threads everything pending
  // is safe by definition.
  TickUnprotected();
}

int32_t EpochFramework::SlotOfCurrentThread() const {
  return FindBinding(instance_id_);
}

bool EpochFramework::IsProtected() const {
  return SlotOfCurrentThread() >= 0;
}

int32_t EpochFramework::AcquireSlot() {
  const uint64_t epoch = current_epoch_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < max_threads_; ++i) {
    uint64_t expected = kUnprotectedEpoch;
    if (table_[i].local_epoch.compare_exchange_strong(
            expected, epoch, std::memory_order_acq_rel)) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

uint64_t EpochFramework::RefreshSlot(int32_t slot) {
  return RefreshSlot(slot, current_epoch_.load(std::memory_order_acquire));
}

uint64_t EpochFramework::RefreshSlot(int32_t slot, uint64_t observed) {
  assert(slot >= 0 && static_cast<uint32_t>(slot) < max_threads_);
  table_[slot].local_epoch.store(observed, std::memory_order_release);
  const uint64_t safe = ComputeNewSafeEpoch();
  if (drain_count_.load(std::memory_order_acquire) > 0) Drain(safe);
  return observed;
}

void EpochFramework::ReleaseSlot(int32_t slot) {
  assert(slot >= 0 && static_cast<uint32_t>(slot) < max_threads_);
  table_[slot].local_epoch.store(kUnprotectedEpoch, std::memory_order_release);
  // This slot may have been the last straggler holding an old epoch.
  Drain(ComputeNewSafeEpoch());
}

void EpochFramework::Acquire() {
  assert(!IsProtected());
  const int32_t slot = AcquireSlot();
  assert(slot >= 0 && "epoch table full: raise max_threads");
  AddBinding(instance_id_, slot);
}

void EpochFramework::Release() {
  const int32_t slot = SlotOfCurrentThread();
  assert(slot >= 0);
  RemoveBinding(instance_id_);
  ReleaseSlot(slot);
}

uint64_t EpochFramework::Refresh() {
  const int32_t slot = SlotOfCurrentThread();
  assert(slot >= 0);
  return RefreshSlot(slot);
}

uint64_t EpochFramework::ComputeNewSafeEpoch() {
  const uint64_t current = current_epoch_.load(std::memory_order_acquire);
  uint64_t oldest = current;
  for (uint32_t i = 0; i < max_threads_; ++i) {
    const uint64_t e = table_[i].local_epoch.load(std::memory_order_acquire);
    if (e != kUnprotectedEpoch && e < oldest) oldest = e;
  }
  const uint64_t safe = oldest - 1;
  // Monotonically publish. CAS loop: multiple refreshers may race.
  uint64_t prev = safe_epoch_.load(std::memory_order_acquire);
  while (prev < safe && !safe_epoch_.compare_exchange_weak(
                            prev, safe, std::memory_order_acq_rel)) {
  }
  return safe_epoch_.load(std::memory_order_acquire);
}

uint64_t EpochFramework::BumpEpoch() {
  return current_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t EpochFramework::BumpEpoch(std::function<void()> action) {
  // Claim a drain-list slot, install the action, then publish the gating
  // epoch. The bump happens after installation so that the action can never
  // be missed: any refresh that sees the new epoch also sees the entry.
  for (uint32_t i = 0; i < kDrainListSize; ++i) {
    uint64_t expected = kDrainFree;
    if (drain_list_[i].epoch.compare_exchange_strong(
            expected, kDrainLocked, std::memory_order_acq_rel)) {
      drain_list_[i].action = std::move(action);
      const uint64_t prior =
          current_epoch_.fetch_add(1, std::memory_order_acq_rel);
      drain_count_.fetch_add(1, std::memory_order_acq_rel);
      drain_list_[i].epoch.store(prior, std::memory_order_release);
      // The action may already be safe (e.g. no protected threads).
      Drain(ComputeNewSafeEpoch());
      return prior + 1;
    }
  }
  // Drain list full: execute inline once everything older is safe. This is a
  // backstop; kDrainListSize far exceeds realistic in-flight action counts.
  const uint64_t prior = current_epoch_.fetch_add(1, std::memory_order_acq_rel);
  WaitUntilSafe(prior);
  action();
  return prior + 1;
}

void EpochFramework::Drain(uint64_t safe) {
  if (drain_count_.load(std::memory_order_acquire) == 0) return;
  for (uint32_t i = 0; i < kDrainListSize; ++i) {
    uint64_t e = drain_list_[i].epoch.load(std::memory_order_acquire);
    if (e == kDrainFree || e == kDrainLocked || e > safe) continue;
    if (drain_list_[i].epoch.compare_exchange_strong(
            e, kDrainLocked, std::memory_order_acq_rel)) {
      std::function<void()> action = std::move(drain_list_[i].action);
      drain_list_[i].action = nullptr;
      drain_count_.fetch_sub(1, std::memory_order_acq_rel);
      drain_list_[i].epoch.store(kDrainFree, std::memory_order_release);
      action();
    }
  }
}

void EpochFramework::TickUnprotected() { Drain(ComputeNewSafeEpoch()); }

void EpochFramework::WaitUntilSafe(uint64_t epoch) {
  const bool is_protected = IsProtected();
  while (true) {
    if (is_protected) {
      Refresh();
    } else {
      TickUnprotected();
    }
    if (safe_epoch_.load(std::memory_order_acquire) >= epoch) return;
    std::this_thread::yield();
  }
}

uint32_t EpochFramework::ProtectedThreadCount() const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < max_threads_; ++i) {
    if (table_[i].local_epoch.load(std::memory_order_acquire) !=
        kUnprotectedEpoch) {
      ++n;
    }
  }
  return n;
}

}  // namespace cpr
