#ifndef CPR_UTIL_SHARDED_HISTOGRAM_H_
#define CPR_UTIL_SHARDED_HISTOGRAM_H_

// Lock-free log2 histogram shared by the metrics registry (src/obs) and
// low-level instrumentation structs (util/instrumentation.h). Lives in util —
// below obs in the link order — so ServerCounters can record durable lag
// without a mutex and without util depending on the obs library.
//
// Recording shards state over kMetricSlots cache-line-isolated per-thread
// slots, so concurrent writers never contend and a record is three relaxed
// atomic RMWs. Sampling merges the slots lock-free; concurrent with
// recorders the (count, sum, buckets) triple is only approximately
// consistent — fine for monitoring, exact once recorders quiesce.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/cacheline.h"

namespace cpr {

// Thread shards per instrument. More slots = less false sharing between
// recording threads, more memory and a longer (still lock-free) sum.
constexpr uint32_t kMetricSlots = 16;

// Stable, hashed index of the calling thread into [0, kMetricSlots).
inline uint32_t ThisThreadSlot() {
  // Hash of the thread id, computed once per thread. Collisions just share a
  // slot (the atomics stay correct, only cache locality degrades).
  static thread_local const uint32_t slot = [] {
    const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return static_cast<uint32_t>(h % kMetricSlots);
  }();
  return slot;
}

// Plain-data log2-bucketed histogram: a HistogramMetric snapshot, and the
// mergeable single-writer histogram the benchmarks record into directly.
struct HistogramData {
  std::array<uint64_t, 65> buckets{};
  uint64_t sum = 0;
  uint64_t count = 0;

  void Add(uint64_t v) {
    buckets[BucketOf(v)] += 1;
    sum += v;
    count += 1;
  }

  void Merge(const HistogramData& o) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    sum += o.sum;
    count += o.count;
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Approximate quantile (bucket upper bound), q in [0, 1].
  uint64_t Quantile(double q) const {
    if (count == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
    if (target >= count) target = count - 1;  // q=1.0: the max bucket
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen > target) return i == 0 ? 1 : (uint64_t{1} << i);
    }
    return uint64_t{1} << 63;
  }

  static int BucketOf(uint64_t v) {
    return v == 0 ? 0 : 64 - __builtin_clzll(v);
  }
};

// Concurrent log2 histogram: per-thread-slot atomic buckets; Record() is
// three relaxed RMWs on the caller's slot.
class HistogramMetric {
 public:
  HistogramMetric() = default;

  void Record(uint64_t v) {
    Slot& s = slots_[ThisThreadSlot()];
    s.buckets[HistogramData::BucketOf(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
  }

  // Lock-free (relaxed) merge over the slots.
  HistogramData Sample() const {
    HistogramData d;
    for (const Slot& s : slots_) {
      for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
      d.sum += s.sum.load(std::memory_order_relaxed);
      d.count += s.count.load(std::memory_order_relaxed);
    }
    return d;
  }

  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::array<std::atomic<uint64_t>, 65> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> count{0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

}  // namespace cpr

#endif  // CPR_UTIL_SHARDED_HISTOGRAM_H_
