#ifndef CPR_OBS_TRACE_H_
#define CPR_OBS_TRACE_H_

// Checkpoint lifecycle tracer: a fixed-capacity per-process ring buffer of
// structured phase spans, exportable as Chrome trace_event JSON (open in
// Perfetto / chrome://tracing).
//
// What gets traced (all rare, coordination-path events — never per-op):
//   cat "faster"  prepare / in_progress / wait_pending / wait_flush spans of
//                 each FasterKv CPR commit, plus index_flush / snapshot_flush
//                 artifact writes; span id = checkpoint token.
//   cat "txdb"    prepare / in_progress / wait_flush / capture_persist spans
//                 of each transactional-db commit; span id = version.
//   cat "shard"   broadcast / collect / publish_manifest spans of each
//                 coordinated cross-shard round; span id = round number.
//
// Spans live in an obs::SpanRing (one atomic ticket plus a per-slot
// spinlock per record). Overhead budget: O(100ns) per span, a handful of
// spans per checkpoint — invisible next to a millisecond-scale commit.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_ring.h"
#include "util/clock.h"

namespace cpr::obs {

struct TraceSpan {
  uint64_t start_ns = 0;  // NowNanos() timebase
  uint64_t dur_ns = 0;
  uint64_t id = 0;    // correlates the spans of one checkpoint/round
  uint32_t tid = 0;   // recording thread (hashed)
  char cat[12] = {};  // truncated, NUL-terminated
  char name[20] = {};
};

class Tracer {
 public:
  // `capacity` is rounded up to a power of two (default 4096 spans ≈ 256KB).
  explicit Tracer(uint32_t capacity = 4096) : ring_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-global tracer all subsystems record into. If the
  // CPR_TRACE_DUMP environment variable names a file when the process exits
  // normally, the trace is exported there (CI uses this to attach the
  // checkpoint timeline of a failed fault-matrix run).
  static Tracer& Default();

  // Records one complete span. `cat`/`name` are truncated to the fixed
  // field sizes. Thread-safe, wait-free except the per-slot spinlock.
  void Record(const char* cat, const char* name, uint64_t start_ns,
              uint64_t end_ns, uint64_t id = 0);

  // The retained spans, oldest first (the ring keeps the newest
  // `capacity()` spans; older ones were overwritten).
  std::vector<TraceSpan> Snapshot() const { return ring_.Snapshot(); }

  // Chrome trace_event JSON ({"traceEvents":[...]}): complete ("ph":"X")
  // events with microsecond timestamps. Newest spans are preferred when the
  // serialization would exceed `max_bytes` (wire frames cap at 1MB).
  std::string ExportChromeTrace(size_t max_bytes = 768 * 1024) const;

  // Spans recorded over the tracer's lifetime (>= retained).
  uint64_t recorded() const { return ring_.recorded(); }
  uint64_t dropped() const {
    const uint64_t r = recorded();
    return r > capacity() ? r - capacity() : 0;
  }
  uint32_t capacity() const { return ring_.capacity(); }

  // Empties the ring (test isolation); concurrent Record() is safe.
  void Clear() { ring_.Clear(); }

 private:
  SpanRing<TraceSpan> ring_;
};

// Serializes spans (already oldest-first) as Chrome trace JSON without a
// byte cap. Exposed for tests.
std::string SpansToChromeTrace(const std::vector<TraceSpan>& spans);

// RAII span: records [construction, destruction) into `tracer`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* cat, const char* name,
             uint64_t id = 0)
      : tracer_(tracer), cat_(cat), name_(name), id_(id), start_(NowNanos()) {}
  ~ScopedSpan() { tracer_.Record(cat_, name_, start_, NowNanos(), id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* cat_;
  const char* name_;
  uint64_t id_;
  uint64_t start_;
};

}  // namespace cpr::obs

#endif  // CPR_OBS_TRACE_H_
