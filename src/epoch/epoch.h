#ifndef CPR_EPOCH_EPOCH_H_
#define CPR_EPOCH_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "util/cacheline.h"

namespace cpr {

// Epoch protection framework (paper §3), modeled on FASTER's LightEpoch.
//
// A shared atomic counter E ("current epoch") can be bumped by any thread.
// Every participant P (a thread, or a session a thread drives) keeps a local
// copy E_P in a shared epoch table (one cache line per slot) and refreshes
// it periodically. An epoch c is "safe" once every protected slot has
// E_P > c; the framework tracks the maximal safe epoch E_s and maintains the
// invariant
//     for all protected P:   E_s < E_P <= E.
//
// Trigger actions: BumpEpoch(action) increments E from e to e+1 and arranges
// for `action` to run exactly once, on whichever thread first refreshes after
// e became safe. Because participants perform their local state transitions
// *before* publishing a new E_P (see RefreshSlot()'s contract), "epoch e is
// safe" implies every participant has observed any global state published
// before the bump — this is how the CPR state machines realize their "when
// all threads have entered phase X" transition conditions without any
// blocking.
//
// Participant model: AcquireSlot() once (registering an epoch-table entry),
// then RefreshSlot() periodically, and ReleaseSlot() when done. A slot that
// stops refreshing stalls trigger actions, exactly as a stalled thread
// stalls an epoch-based system in practice; tests cover this.
class EpochFramework {
 public:
  static constexpr uint32_t kDefaultMaxThreads = 128;

  explicit EpochFramework(uint32_t max_threads = kDefaultMaxThreads);
  ~EpochFramework();

  EpochFramework(const EpochFramework&) = delete;
  EpochFramework& operator=(const EpochFramework&) = delete;

  // A slot protects a logical participant (e.g. a KV session owned by a
  // network connection) rather than the calling thread, so one thread can
  // drive many protected participants. The returned handle must be
  // refreshed regularly (RefreshSlot) and released exactly once
  // (ReleaseSlot). Calls on a given slot must be externally serialized, but
  // may come from different threads over the slot's lifetime — the
  // safe-epoch invariant only cares that the slot's entry advances, not
  // which thread advances it.

  // Reserves an epoch-table entry and protects it at the current epoch.
  // Returns -1 if the table is full (raise max_threads).
  int32_t AcquireSlot();

  // Publishes progress for `slot`: sets E_P = E, recomputes the maximal
  // safe epoch, and runs any drain-list actions that became safe. Returns
  // the slot's (new) epoch.
  //
  // Contract for state-machine users: perform all local transitions
  // implied by global state *before* calling RefreshSlot — never after, or
  // the safe-epoch guarantee ("all participants observed the transition")
  // is void.
  uint64_t RefreshSlot(int32_t slot);

  // Publishes `observed` — a current_epoch() value read before the caller
  // looked at its global state — instead of re-reading the epoch. A bump
  // that lands between that look and the publish then stays unacknowledged
  // until the slot's next refresh, so "epoch safe" still implies "this slot
  // observed every transition published before the bump".
  uint64_t RefreshSlot(int32_t slot, uint64_t observed);

  // Frees `slot`; pending trigger actions no longer wait on it.
  void ReleaseSlot(int32_t slot);

  // Increments the current epoch. Returns the new epoch value.
  uint64_t BumpEpoch();

  // Increments the current epoch from e to e+1 and registers `action` to be
  // executed once epoch e is safe. Returns the new epoch value (e+1).
  uint64_t BumpEpoch(std::function<void()> action);

  // Runs drain-list actions that are ready, without requiring the caller to
  // be protected (used by background threads).
  void TickUnprotected();

  // Blocks (politely spinning) until epoch `epoch` is safe and every drain
  // action registered at or before it has run. Other threads must refresh
  // the protected slots; a slot only the caller refreshes never lets it
  // return.
  void WaitUntilSafe(uint64_t epoch);

  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }
  uint64_t safe_epoch() const {
    return safe_epoch_.load(std::memory_order_acquire);
  }
  uint32_t max_threads() const { return max_threads_; }

  // Number of protected slots; O(max_threads).
  uint32_t ProtectedThreadCount() const;

  // Number of drain-list actions not yet executed.
  uint32_t PendingActionCount() const {
    return drain_count_.load(std::memory_order_acquire);
  }

  // One consistent-enough view of the table for observability collectors:
  // epoch lag (current - safe) is the headline "how far behind is the
  // slowest session" signal; drain depth is the trigger-action backlog.
  struct Metrics {
    uint64_t current_epoch = 0;
    uint64_t safe_epoch = 0;
    uint32_t protected_threads = 0;
    uint32_t pending_actions = 0;
  };
  Metrics MetricsSample() const {
    Metrics m;
    m.current_epoch = current_epoch();
    m.safe_epoch = safe_epoch();
    m.protected_threads = ProtectedThreadCount();
    m.pending_actions = PendingActionCount();
    return m;
  }

 private:
  struct alignas(kCacheLineBytes) Entry {
    // kUnprotectedEpoch when the slot is free.
    std::atomic<uint64_t> local_epoch{0};
  };

  struct DrainEntry {
    // kDrainFree: slot empty; kDrainLocked: being installed or executed;
    // otherwise: the epoch whose safety gates the action.
    std::atomic<uint64_t> epoch{kDrainFree};
    std::function<void()> action;
  };

  static constexpr uint64_t kUnprotectedEpoch = 0;
  static constexpr uint64_t kDrainFree = ~uint64_t{0};
  static constexpr uint64_t kDrainLocked = ~uint64_t{0} - 1;
  static constexpr uint32_t kDrainListSize = 256;

  // Recomputes and publishes the maximal safe epoch.
  uint64_t ComputeNewSafeEpoch();
  // Executes ready drain-list actions; `safe` is a freshly computed safe
  // epoch.
  void Drain(uint64_t safe);

  const uint32_t max_threads_;
  std::unique_ptr<Entry[]> table_;
  std::unique_ptr<DrainEntry[]> drain_list_;
  std::atomic<uint32_t> drain_count_{0};

  alignas(kCacheLineBytes) std::atomic<uint64_t> current_epoch_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> safe_epoch_;
};

}  // namespace cpr

#endif  // CPR_EPOCH_EPOCH_H_
