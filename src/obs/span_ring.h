#ifndef CPR_OBS_SPAN_RING_H_
#define CPR_OBS_SPAN_RING_H_

// Fixed-capacity ring of the newest recorded spans, shared by obs::Tracer
// (checkpoint phase spans) and obs::ReqTrace (sampled per-request spans).
//
// Concurrency: Record() claims a slot with one atomic ticket and takes the
// slot's spinlock for the copy; Snapshot() takes each slot's lock briefly
// while copying. Writers from different threads never touch the same slot
// until the ring wraps, so the lock is effectively uncontended.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/cacheline.h"

namespace cpr::obs {

template <typename Span>
class SpanRing {
 public:
  // `capacity` is rounded up to a power of two (at least 2).
  explicit SpanRing(uint32_t capacity)
      : capacity_(RoundUpPow2(capacity)), slots_(new Slot[capacity_]) {}

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  // Overwrites the oldest slot once the ring is full. Thread-safe, wait-free
  // except the per-slot spinlock.
  void Record(const Span& span) {
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    SlotLock lock(slot.lock);
    slot.ticket = ticket + 1;
    slot.span = span;
  }

  // The retained spans, oldest first.
  std::vector<Span> Snapshot() const {
    std::vector<std::pair<uint64_t, Span>> ticketed;
    ticketed.reserve(capacity_);
    for (uint32_t i = 0; i < capacity_; ++i) {
      Slot& slot = slots_[i];
      SlotLock lock(slot.lock);
      if (slot.ticket != 0) ticketed.emplace_back(slot.ticket, slot.span);
    }
    // Ticket order == record order.
    std::sort(ticketed.begin(), ticketed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Span> out;
    out.reserve(ticketed.size());
    for (auto& [ticket, span] : ticketed) out.push_back(span);
    return out;
  }

  // Empties every slot; concurrent Record() is safe. The ticket count keeps
  // running, so record order stays correct across a Clear().
  void Clear() {
    for (uint32_t i = 0; i < capacity_; ++i) {
      Slot& slot = slots_[i];
      SlotLock lock(slot.lock);
      slot.ticket = 0;
      slot.span = Span{};
    }
  }

  // Spans recorded over the ring's lifetime (>= retained).
  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  uint32_t capacity() const { return capacity_; }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    uint64_t ticket = 0;  // 0 = empty, else 1 + ticket; guarded by lock
    Span span;            // guarded by lock
  };

  class SlotLock {
   public:
    explicit SlotLock(std::atomic_flag& f) : f_(f) {
      while (f_.test_and_set(std::memory_order_acquire)) {
        // Contention only when the ring wraps onto an in-flight writer or a
        // snapshot touches this exact slot: spin briefly.
      }
    }
    ~SlotLock() { f_.clear(std::memory_order_release); }

   private:
    std::atomic_flag& f_;
  };

  static uint32_t RoundUpPow2(uint32_t v) {
    uint32_t p = 2;
    while (p < v) p <<= 1;
    return p;
  }

  const uint32_t capacity_;  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace cpr::obs

#endif  // CPR_OBS_SPAN_RING_H_
