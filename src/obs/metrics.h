#ifndef CPR_OBS_METRICS_H_
#define CPR_OBS_METRICS_H_

// Unified metrics registry: named counters / gauges / histograms shared by
// every layer (epoch tables, io pool, FasterKv checkpoints, txdb commits,
// shard coordinator, network server) and scrapeable as one snapshot over the
// STATS wire op.
//
// Recording is designed for hot paths: each instrument shards its state over
// kMetricSlots cache-line-isolated per-thread slots, so concurrent writers
// never contend and a record is one relaxed atomic RMW. The snapshot path is
// lock-free against recorders AND against concurrent registration: the
// instrument table is a fixed-capacity array published through an atomic
// size, so readers iterate a stable prefix while registrations append.
//
// Two ways to get data in:
//   * Owned instruments — GetCounter/GetGauge/GetHistogram return a stable
//     handle for a name (the same handle for the same name, so layers with
//     many instances share aggregates). Handles live as long as the
//     registry; the default registry is never destroyed, so handles cached
//     in long-lived objects stay valid forever.
//   * Collectors — pull-style callbacks for metrics that already live in a
//     struct somewhere (ServerCounters, epoch tables, shard round state).
//     Collectors run at snapshot time under a mutex (cold path) and MUST be
//     removed before the emitting object dies.
//
// Naming scheme (DESIGN.md "Observability"): prometheus-style
//   cpr_<layer>_<what>[_total|_ns]{label="value",...}
// Labels are baked into the registered name string; the registry treats the
// whole string as the key. RenderText() produces the text exposition
// (`name value` lines) that the server's STATS op returns.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cacheline.h"

namespace cpr::obs {

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
  uint64_t max = 0;  // largest recorded value

  void Add(uint64_t v) {
    buckets[BucketOf(v)] += 1;
    sum += v;
    count += 1;
    if (v > max) max = v;
  }

  void Merge(const HistogramData& o) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    sum += o.sum;
    count += o.count;
    if (o.max > max) max = o.max;
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Approximate quantile, q in [0, 1]: the bucket's upper bound, clamped to
  // the recorded max so no quantile exceeds it (q=1.0 is the max).
  uint64_t Quantile(double q) const {
    if (count == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
    if (target >= count) target = count - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen > target) {
        return std::min(max, i == 0 ? uint64_t{1} : uint64_t{1} << i);
      }
    }
    return max;
  }

  static int BucketOf(uint64_t v) {
    return v == 0 ? 0 : 64 - __builtin_clzll(v);
  }
};

// Concurrent log2 histogram: per-thread-slot atomic buckets; Record() is
// three relaxed RMWs on the caller's slot (plus a CAS on a new slot max).
class HistogramMetric {
 public:
  HistogramMetric() = default;

  void Record(uint64_t v) {
    Slot& s = slots_[ThisThreadSlot()];
    s.buckets[HistogramData::BucketOf(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    // A CAS only while v is a new maximum for this slot: rare once warm.
    uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (v > seen && !s.max.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
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
      d.max = std::max(d.max, s.max.load(std::memory_order_relaxed));
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
    std::atomic<uint64_t> max{0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge, kHistogram };

// Monotonic counter. Add() is one relaxed fetch_add on the caller's slot.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    slots_[ThisThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<uint64_t> v{0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

// Instantaneous value; Set is last-write-wins, Add is a relaxed RMW (used
// for up/down tracking like queue depths).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> v_{0};
};

// One snapshot entry. Counters/gauges carry `value`; histograms carry `hist`.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  HistogramData hist;
};

class MetricsRegistry {
 public:
  // Hard cap on owned instruments; registrations past it return a shared
  // dummy instrument that records into the void rather than failing.
  static constexpr uint32_t kMaxMetrics = 1024;

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-global registry every subsystem records into. Never
  // destroyed (intentionally leaked), so cached handles outlive everything.
  static MetricsRegistry& Default();

  // Returns the instrument registered under `name`, creating it on first
  // use. The same name always yields the same handle, so independent
  // instances (e.g. shards) share one aggregate. Thread-safe; cold path.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  // Pull-style collection for metrics owned elsewhere. The collector is
  // invoked at snapshot time with an emit function; every emitted (name,
  // value) pair appears in the snapshot as a gauge. Returns an id for
  // RemoveCollector — call it before the state the collector reads dies.
  using EmitFn = std::function<void(const std::string& name, double value)>;
  using CollectorFn = std::function<void(const EmitFn&)>;
  uint64_t AddCollector(CollectorFn fn);
  void RemoveCollector(uint64_t id);

  // All owned instruments (lock-free against recorders and registration)
  // plus every collector's emissions (mutex-guarded, cold).
  std::vector<MetricSample> Snapshot() const;

  // Prometheus-style text exposition of Snapshot(): `# TYPE` headers,
  // `name value` lines; histograms expand to `_count`, `_sum` and
  // `{quantile="..."}` lines. Every render is prefixed with a scrape
  // sequence number (monotonic per registry, so external scrapers detect
  // restarts when it goes backwards) and the server's monotonic clock in
  // nanoseconds (so rates can be computed without guessing at collection
  // time).
  std::string RenderText() const;

  uint32_t NumInstruments() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  // Finds an existing entry or appends a new one; returns its index.
  uint32_t FindOrCreate(const std::string& name, MetricKind kind);

  // Registration order; entries [0, size_) are immutable once published.
  std::unique_ptr<Entry[]> entries_;
  std::atomic<uint32_t> size_{0};
  mutable std::mutex register_mu_;  // serializes registration only

  mutable std::mutex collectors_mu_;
  std::vector<std::pair<uint64_t, CollectorFn>> collectors_;
  uint64_t next_collector_id_ = 1;

  // Bumped once per RenderText(); emitted as cpr_scrape_seq.
  mutable std::atomic<uint64_t> scrape_seq_{0};

  // Overflow sinks handed out past kMaxMetrics (never in a snapshot).
  std::unique_ptr<Counter> overflow_counter_;
  std::unique_ptr<Gauge> overflow_gauge_;
  std::unique_ptr<HistogramMetric> overflow_histogram_;
};

}  // namespace cpr::obs

#endif  // CPR_OBS_METRICS_H_
